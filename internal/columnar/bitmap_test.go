package columnar

import "testing"

func TestBitmapAndNot(t *testing.T) {
	a, b := NewBitmap(130), NewBitmap(130)
	for i := 0; i < 130; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 130; i += 4 {
		b.Set(i)
	}
	a.AndNot(b)
	for i := 0; i < 130; i++ {
		want := i%2 == 0 && i%4 != 0
		if a.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, a.Get(i), want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AndNot length mismatch did not panic")
		}
	}()
	a.AndNot(NewBitmap(64))
}

func TestBitmapFill(t *testing.T) {
	cases := []struct{ lo, hi int }{
		{0, 0}, {0, 1}, {0, 64}, {0, 65}, {63, 65}, {5, 200}, {64, 128}, {100, 101}, {0, 200},
	}
	for _, c := range cases {
		b := NewBitmap(200)
		b.Fill(c.lo, c.hi)
		for i := 0; i < 200; i++ {
			want := i >= c.lo && i < c.hi
			if b.Get(i) != want {
				t.Fatalf("Fill(%d,%d): bit %d = %v, want %v", c.lo, c.hi, i, b.Get(i), want)
			}
		}
		if got, want := b.Count(), c.hi-c.lo; got != want {
			t.Fatalf("Fill(%d,%d): Count = %d, want %d", c.lo, c.hi, got, want)
		}
	}
	b := NewBitmap(32)
	b.Set(3)
	b.Fill(10, 12) // must not clear bits outside the range
	if !b.Get(3) {
		t.Fatal("Fill cleared an unrelated bit")
	}
}

func TestBitmapFillPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fill out of range did not panic")
		}
	}()
	NewBitmap(10).Fill(0, 11)
}

func TestBitmapSetWord(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 200} {
		b := NewBitmap(n)
		b.Fill(0, n) // SetWord overwrites, it does not OR
		pattern := uint64(0xa5a5_5a5a_0ff0_f00f)
		last := (n - 1) >> 6
		b.SetWord(last, ^uint64(0)) // every bit, including those at or beyond Len
		for wi := 0; wi < last; wi++ {
			b.SetWord(wi, pattern)
		}
		want := 0
		for i := 0; i < n; i++ {
			bit := i>>6 == last || pattern&(1<<(uint(i)&63)) != 0
			if bit {
				want++
			}
			if b.Get(i) != bit {
				t.Fatalf("n=%d: bit %d = %v, want %v", n, i, b.Get(i), bit)
			}
		}
		if got := b.Count(); got != want {
			t.Fatalf("n=%d: Count = %d, want %d: SetWord kept bits beyond Len", n, got, want)
		}
	}
}

func benchBitmaps(n int) (*Bitmap, *Bitmap) {
	a, b := NewBitmap(n), NewBitmap(n)
	for i := 0; i < n; i += 3 {
		a.Set(i)
	}
	for i := 0; i < n; i += 7 {
		b.Set(i)
	}
	return a, b
}

func BenchmarkBitmapAnd(b *testing.B) {
	x, y := benchBitmaps(1 << 16)
	b.SetBytes(int64(x.ByteSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkBitmapOr(b *testing.B) {
	x, y := benchBitmaps(1 << 16)
	b.SetBytes(int64(x.ByteSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

func BenchmarkBitmapCount(b *testing.B) {
	x, _ := benchBitmaps(1 << 16)
	b.SetBytes(int64(x.ByteSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

func BenchmarkBitmapIndices(b *testing.B) {
	x, _ := benchBitmaps(1 << 16)
	dst := make([]int, 0, 1<<16)
	b.SetBytes(int64(x.ByteSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = x.Indices(dst[:0])
	}
}
