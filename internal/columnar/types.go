// Package columnar implements the in-flight data representation used by
// every operator and device in the engine: typed column vectors grouped
// into batches, with schemas and null bitmaps.
//
// Batches are the unit that flows through pipelines (Section 7.1 of the
// paper: queue elements moved by DMA engines between stages). They are
// columnar because both the storage layer and the streaming accelerators
// operate column-at-a-time; a row view is provided for the HTAP
// transposition experiments.
package columnar

import (
	"fmt"
	"strings"
)

// Type enumerates the column types supported by the engine.
type Type uint8

// Supported column types.
const (
	Int64 Type = iota
	Float64
	String
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Field is one named, typed column of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema describes the columns of a batch or table.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema {
	return &Schema{Fields: fields}
}

// NumFields reports the number of columns.
func (s *Schema) NumFields() int { return len(s.Fields) }

// FieldIndex returns the index of the column with the given name, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Project returns a new schema containing only the columns at the given
// indices, in order. It panics on out-of-range indices, which indicate a
// planner bug rather than a runtime condition.
func (s *Schema) Project(indices []int) *Schema {
	out := &Schema{Fields: make([]Field, len(indices))}
	for i, idx := range indices {
		out.Fields[i] = s.Fields[idx]
	}
	return out
}

// Concat returns a schema with s's fields followed by other's fields.
// Name collisions are resolved by prefixing the right side with "r_",
// matching the behaviour of the join operators.
func (s *Schema) Concat(other *Schema) *Schema {
	out := &Schema{Fields: make([]Field, 0, len(s.Fields)+len(other.Fields))}
	seen := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		seen[f.Name] = true
		out.Fields = append(out.Fields, f)
	}
	for _, f := range other.Fields {
		name := f.Name
		if seen[name] {
			name = "r_" + name
		}
		out.Fields = append(out.Fields, Field{Name: name, Type: f.Type})
	}
	return out
}

// Equal reports whether two schemas have identical fields.
func (s *Schema) Equal(other *Schema) bool {
	if len(s.Fields) != len(other.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != other.Fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Value is one dynamically typed cell, used at API boundaries (row
// ingestion, result printing) where column-at-a-time access is
// inconvenient. Operators never use Value in inner loops.
type Value struct {
	Type Type
	Null bool
	I    int64
	F    float64
	S    string
	B    bool
}

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Type: Int64, I: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Type: Float64, F: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Type: String, S: v} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value { return Value{Type: Bool, B: v} }

// NullValue returns the NULL of the given type.
func NullValue(t Type) Value { return Value{Type: t, Null: true} }

// String renders the value for result printing.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Type {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	case Bool:
		return fmt.Sprintf("%t", v.B)
	}
	return "?"
}

// Equal reports deep equality of two values including null-ness.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch v.Type {
	case Int64:
		return v.I == o.I
	case Float64:
		return v.F == o.F
	case String:
		return v.S == o.S
	case Bool:
		return v.B == o.B
	}
	return false
}
