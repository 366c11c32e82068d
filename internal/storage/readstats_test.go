package storage

import (
	"reflect"
	"testing"
	"unicode"
)

// fillCounters sets every integer field of v, descending into embedded
// structs, to next+1, next+2, ... in declaration order and returns the
// last value used — so a test can tell a doubled counter from a
// forgotten one.
func fillCounters(v reflect.Value, next int64) int64 {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Struct {
			next = fillCounters(f, next)
		} else {
			next++
			f.SetInt(next)
		}
	}
	return next
}

// counters flattens v's integer fields in the order fillCounters set
// them.
func counters(v reflect.Value) []int64 {
	var out []int64
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Struct {
			out = append(out, counters(f)...)
		} else {
			out = append(out, f.Int())
		}
	}
	return out
}

// A counter cannot be half-added: Add must fold every field of the
// struct — ScanStats' own and, through it, ReadStats'.
func TestStatsAddCoversEveryField(t *testing.T) {
	var rs, rsSum ReadStats
	fillCounters(reflect.ValueOf(&rs).Elem(), 0)
	rsSum.Add(rs)
	rsSum.Add(rs)
	var ss, ssSum ScanStats
	fillCounters(reflect.ValueOf(&ss).Elem(), 0)
	ssSum.Add(ss)
	ssSum.Add(ss)
	for _, tc := range []struct {
		name     string
		one, two any
	}{
		{"ReadStats", rs, rsSum},
		{"ScanStats", ss, ssSum},
	} {
		one, two := counters(reflect.ValueOf(tc.one)), counters(reflect.ValueOf(tc.two))
		for i := range one {
			if two[i] != 2*one[i] {
				t.Errorf("%s.Add: counter #%d = %d after adding %d twice: Add skips a field",
					tc.name, i+1, two[i], one[i])
			}
		}
	}
}

// Each must report every field of ReadStats, in declaration order,
// under the field's own name with a lower-case first letter.
func TestReadStatsEachCoversEveryField(t *testing.T) {
	var s ReadStats
	v := reflect.ValueOf(&s).Elem()
	fillCounters(v, 0)
	i := 0
	s.Each(func(name string, got int64) {
		if i >= v.NumField() {
			t.Fatalf("Each reports more counters than ReadStats has fields (%d)", v.NumField())
		}
		field := v.Type().Field(i).Name
		if want := string(unicode.ToLower(rune(field[0]))) + field[1:]; name != want {
			t.Errorf("Each counter #%d is named %q, want %q (field %s)", i+1, name, want, field)
		}
		if got != int64(i+1) {
			t.Errorf("Each reports %s = %d, want field %s's %d", name, got, field, i+1)
		}
		i++
	})
	if i != v.NumField() {
		t.Errorf("Each reported %d counters, ReadStats has %d fields", i, v.NumField())
	}
}
