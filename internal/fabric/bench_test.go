package fabric

import "testing"

// BenchmarkPath asks for the same route over and over, as the engine
// does for every stage of every query it builds.
func BenchmarkPath(b *testing.B) {
	c := NewCluster(DefaultClusterConfig())
	from, to := DevStorageProc, ComputeDev(0, "cpu")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Path(from, to); err != nil {
			b.Fatal(err)
		}
	}
}
