package sim

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRateTimeFor(t *testing.T) {
	tests := []struct {
		name string
		rate Rate
		n    Bytes
		want VTime
	}{
		{"one GB at 1GB/s", GBPerSec, 1e9, Second},
		{"half GB at 1GB/s", GBPerSec, 5e8, 500 * Millisecond},
		{"zero bytes", GBPerSec, 0, 0},
		{"negative bytes", GBPerSec, -5, 0},
		{"zero rate is free", 0, GB, 0},
		{"100Gb NIC moves 12.5GB in 1s", GbitPerSec(100), 12_500_000_000, Second},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.rate.TimeFor(tc.n)
			// Allow a 1-ppm slack for float rounding.
			diff := got - tc.want
			if diff < 0 {
				diff = -diff
			}
			if tc.want == 0 && got != 0 {
				t.Fatalf("TimeFor(%v) = %v, want 0", tc.n, got)
			}
			if tc.want != 0 && float64(diff)/float64(tc.want) > 1e-6 {
				t.Fatalf("TimeFor(%v) = %v, want %v", tc.n, got, tc.want)
			}
		})
	}
}

func TestVTimeString(t *testing.T) {
	if got := (1500 * Millisecond).String(); got != "1.5s" {
		t.Fatalf("String() = %q, want 1.5s", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds() = %v, want 2", got)
	}
}

func TestBytesString(t *testing.T) {
	tests := []struct {
		b    Bytes
		want string
	}{
		{512, "512B"},
		{2 * KB, "2.00KiB"},
		{3 * MB, "3.00MiB"},
		{GB, "1.00GiB"},
	}
	for _, tc := range tests {
		if got := tc.b.String(); got != tc.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", tc.b, got, tc.want)
		}
	}
}

func TestMeterBasics(t *testing.T) {
	var m Meter
	m.AddBytes(100)
	m.AddBytes(50)
	m.AddBusy(10 * Millisecond)
	m.AddOps(3)
	m.Add(Snapshot{Messages: 7})

	if got := m.Bytes(); got != 150 {
		t.Errorf("Bytes() = %d, want 150", got)
	}
	if got := m.Busy(); got != 10*Millisecond {
		t.Errorf("Busy() = %v, want 10ms", got)
	}
	if got := m.Ops(); got != 3 {
		t.Errorf("Ops() = %d, want 3", got)
	}
	if got := m.Messages(); got != 7 {
		t.Errorf("Messages() = %d, want 7", got)
	}

	snap := m.Snapshot()
	m.AddBytes(25)
	delta := m.Snapshot().Sub(snap)
	if delta.Bytes != 25 || delta.Ops != 0 {
		t.Errorf("Sub delta = %+v, want Bytes:25", delta)
	}

	m.Reset()
	if m.Bytes() != 0 || m.Busy() != 0 || m.Ops() != 0 || m.Messages() != 0 {
		t.Error("Reset did not zero all counters")
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	const workers, perWorker = 16, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				m.AddBytes(1)
				m.Add(Snapshot{Messages: 2})
			}
		}()
	}
	wg.Wait()
	if got := m.Bytes(); got != workers*perWorker {
		t.Errorf("concurrent Bytes() = %d, want %d", got, workers*perWorker)
	}
	if got := m.Messages(); got != 2*workers*perWorker {
		t.Errorf("concurrent Messages() = %d, want %d", got, 2*workers*perWorker)
	}
}

func TestMeterSnapshotConsistency(t *testing.T) {
	// Every Add charges all four counters by the same amount, so any
	// consistent snapshot must have them equal. With the old
	// independent-atomic counters a concurrent snapshot could observe
	// the bytes of one charge without its busy time — a torn read this
	// test catches reliably under -race scheduling pressure.
	var m Meter
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			m.Add(Snapshot{Bytes: 1, Busy: 1, Ops: 1, Messages: 1})
		}
	}()
	for {
		s := m.Snapshot()
		if int64(s.Bytes) != int64(s.Busy) || s.Ops != s.Messages || int64(s.Bytes) != s.Ops {
			t.Fatalf("torn snapshot: %+v", s)
		}
		select {
		case <-done:
			if got := m.Snapshot(); got.Bytes != 5000 {
				t.Fatalf("final bytes = %d, want 5000", got.Bytes)
			}
			return
		default:
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero state")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		if v := r.Int63n(100); v < 0 || v >= 100 {
			t.Fatalf("Int63n(100) = %d out of range", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of range", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Property(t *testing.T) {
	// Property: Float64 stays in [0,1) regardless of seed.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(99)
	z := NewZipf(r, 1.0, 1000)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf value %d out of [0,1000)", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate: with s=1 over 1000 values its share is
	// 1/H(1000) ~ 13%; check it exceeds 8% and exceeds rank 10 clearly.
	if counts[0] < draws*8/100 {
		t.Errorf("rank-0 count %d too small for Zipf skew", counts[0])
	}
	if counts[0] <= counts[10]*2 {
		t.Errorf("rank 0 (%d) not clearly above rank 10 (%d)", counts[0], counts[10])
	}
}

func TestZipfExponentTwo(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 2.0, 100)
	var zeroes int
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		if v == 0 {
			zeroes++
		}
	}
	// With s=2, rank 0 has share 1/zeta(2,100) ~ 61%.
	if zeroes < draws/2 {
		t.Errorf("rank-0 share %d/%d too small for s=2", zeroes, draws)
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	for _, tc := range []struct {
		s float64
		n int64
	}{{0, 10}, {-1, 10}, {1, 0}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(s=%v,n=%v) did not panic", tc.s, tc.n)
				}
			}()
			NewZipf(r, tc.s, tc.n)
		}()
	}
}

// A manual clock moves only when Advance or Sleep moves it, and an After
// channel fires once the clock passes its deadline.
func TestManualClock(t *testing.T) {
	t0 := time.Unix(100, 0)
	c := NewManualClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now = %v, want %v", c.Now(), t0)
	}
	ch := c.After(time.Second)
	if now := <-c.After(0); !now.Equal(t0) {
		t.Errorf("After(0) fired at %v, want %v", now, t0)
	}
	c.Advance(999 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("After fired before its deadline")
	default:
	}
	if err := c.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-ch:
		if !at.Equal(t0.Add(time.Second)) {
			t.Errorf("After fired at %v, want %v", at, t0.Add(time.Second))
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
	if got := c.Since(t0); got != time.Second {
		t.Errorf("Since = %v, want 1s", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Errorf("Sleep under a cancelled context = %v, want context.Canceled", err)
	}
	if got := c.Since(t0); got != time.Second {
		t.Errorf("a cancelled Sleep moved the clock to %v", got)
	}
}

// The nil clock is the wall clock; a non-positive Sleep returns at once.
func TestNilClockIsTheWallClock(t *testing.T) {
	var c *Clock
	before := time.Now()
	if now := c.Now(); now.Before(before) {
		t.Errorf("nil clock Now %v is before the wall's %v", now, before)
	}
	if err := c.Sleep(nil, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Errorf("wall Sleep under a cancelled context = %v, want context.Canceled", err)
	}
	<-c.After(time.Microsecond)
}
