package autodbaas_bench

import (
	"math/rand"
	"testing"

	"autodbaas/internal/gp"
)

// ---- hot-path pass benchmarks ----
//
// The BO tuner's incremental GP refit, measured against the full refit
// it replaces; internal/core's TestHotPathCachesAreTransparent proves
// the incremental path changes only speed, never results.
// cmd/benchrunner's `hotpath` job runs the same shape and writes
// BENCH_hotpath.json.

// BenchmarkHotPathGPRefit measures absorbing one new sample into a
// GP posterior of n=500 training points: the O(n³) full refit the
// tuner used to pay on every Recommend vs the O(n²) rank-1 update.
func BenchmarkHotPathGPRefit(b *testing.B) {
	const n, dim = 500, 10
	rng := rand.New(rand.NewSource(1))
	x := make([][]float64, n+64)
	y := make([]float64, n+64)
	for i := range x {
		row := make([]float64, dim)
		for d := range row {
			row[d] = rng.Float64()
		}
		x[i] = row
		y[i] = rng.Float64()
	}
	b.Run("mode=full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := gp.NewRegressor(gp.NewSEARD(dim, 0.3, 1), 1e-4)
			if err := m.Fit(x[:n+1], y[:n+1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mode=incremental", func(b *testing.B) {
		var m *gp.Regressor
		refit := func() {
			m = gp.NewRegressor(gp.NewSEARD(dim, 0.3, 1), 1e-4)
			if err := m.Fit(x[:n], y[:n]); err != nil {
				b.Fatal(err)
			}
		}
		refit()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Re-fit the n=500 base off the clock every 64 adds so the
			// timed Add always lands on a ~500-point posterior with a
			// never-before-seen point.
			if i%64 == 0 {
				b.StopTimer()
				refit()
				b.StartTimer()
			}
			j := n + i%64
			if err := m.Add(x[j], y[j]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
