package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"autodbaas/internal/experiments"
	"autodbaas/internal/gp"
	"autodbaas/internal/obs"
)

// benchPoint is one measured configuration of a hot-path benchmark.
type benchPoint struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

func point(r testing.BenchmarkResult) benchPoint {
	return benchPoint{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
}

// gpRefitPoint is a benchPoint stamped with the GP history size the
// operation ran against — without it the ns/op numbers are not
// comparable across runs that change the benchmark's n.
type gpRefitPoint struct {
	N int `json:"n"`
	benchPoint
}

// hotpathReport is the machine-readable artifact (BENCH_hotpath.json)
// for the hot path's remaining cache, the BO tuner's incremental GP
// refit: a micro-benchmark of full vs incremental refits, plus the share
// of refits that took the incremental path over a Fig. 9-style fleet run.
type hotpathReport struct {
	Quick      bool `json:"quick"`
	Benchmarks struct {
		GPRefit struct {
			Full        gpRefitPoint `json:"full"`
			Incremental gpRefitPoint `json:"incremental"`
			Speedup     float64      `json:"speedup"`
		} `json:"gp_refit"`
	} `json:"benchmarks"`
	FleetCacheRates struct {
		Fleet            int     `json:"fleet"`
		Hours            int     `json:"hours"`
		RefitIncremental float64 `json:"gpr_refits_incremental"`
		RefitFull        float64 `json:"gpr_refits_full"`
		IncrementalShare float64 `json:"gpr_incremental_share"`
	} `json:"fleet_cache_rates"`
}

// runHotpath measures the incremental GP refit and returns the JSON
// artifact.
func runHotpath(quick bool, seed int64, parallelism int) string {
	var rep hotpathReport
	rep.Quick = quick

	// Absorbing one sample into an n-point GP posterior: full O(n³)
	// refit vs the rank-1 O(n²) update.
	n, dim := 500, 10
	if quick {
		n = 200
	}
	rng := rand.New(rand.NewSource(seed))
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
	full := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := gp.NewRegressor(gp.NewSEARD(dim, 0.3, 1), 1e-4)
			if err := m.Fit(x[:n+1], y[:n+1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	incr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
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
	// Each entry records the history size its op ran against: the full
	// refit absorbs the new sample into an n+1 posterior; the rank-1
	// updates extend an n-point base (n..n+63 across the loop).
	rep.Benchmarks.GPRefit.Full = gpRefitPoint{N: n + 1, benchPoint: point(full)}
	rep.Benchmarks.GPRefit.Incremental = gpRefitPoint{N: n, benchPoint: point(incr)}
	if incr.NsPerOp() > 0 {
		rep.Benchmarks.GPRefit.Speedup = float64(full.NsPerOp()) / float64(incr.NsPerOp())
	}

	// Refit modes over a Fig. 9-style fleet run.
	fleet, hours := 20, 12
	if quick {
		fleet, hours = 4, 3
	}
	reg := obs.Default()
	refitInc := reg.Counter("autodbaas_tuner_gpr_refit_total",
		"GPR refits by mode (incremental rank-1 update vs full O(n³) fit).", obs.L("mode", "incremental"))
	refitFull := reg.Counter("autodbaas_tuner_gpr_refit_total",
		"GPR refits by mode (incremental rank-1 update vs full O(n³) fit).", obs.L("mode", "full"))
	ri0, rf0 := refitInc.Value(), refitFull.Value()
	experiments.Fig9RequestRateParallel(fleet, hours, parallelism, seed)
	fr := &rep.FleetCacheRates
	fr.Fleet, fr.Hours = fleet, hours
	fr.RefitIncremental = refitInc.Value() - ri0
	fr.RefitFull = refitFull.Value() - rf0
	if total := fr.RefitIncremental + fr.RefitFull; total > 0 {
		fr.IncrementalShare = fr.RefitIncremental / total
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("hotpath: marshal report: %v", err))
	}
	return string(out) + "\n"
}
