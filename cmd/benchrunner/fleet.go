package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/knobs"
	"autodbaas/internal/obs"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

// fleetSizePoint measures the control plane at one fleet size: how
// long provisioning the whole cohort took (one reconcile pass), the
// per-tick reconcile cost once steady, and the per-instance step cost.
type fleetSizePoint struct {
	Instances        int     `json:"instances"`
	Tenants          int     `json:"tenants"`
	ProvisionMs      float64 `json:"provision_ms"`        // reconcile pass that provisioned the cohort
	ProvisionPerInst float64 `json:"provision_us_per_db"` // amortized per database, µs
	ReconcileUs      float64 `json:"reconcile_us"`        // steady-state reconcile pass, µs
	StepUsPerOp      float64 `json:"step_us_per_op"`      // one window step / instance, µs
	// MergeShare is the ordered merge's share of step time over the
	// steady windows, from the step and merge histogram sums.
	MergeShare float64 `json:"merge_share"`
	DrainMs    float64 `json:"drain_ms"` // drain + deprovision the whole cohort
}

// fleetReport is the machine-readable artifact (BENCH_fleet.json) for
// the elastic fleet service: provision latency, reconcile tick cost and
// step cost as the fleet scales.
type fleetReport struct {
	Quick      bool             `json:"quick"`
	Seed       int64            `json:"seed"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	CPU        string           `json:"cpu"`
	Points     []fleetSizePoint `json:"points"`
}

// cpuModel returns the host CPU's model name ("" when unknown).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// benchCatalogue keeps the benchmark cohort cheap and uniform.
func benchCatalogue(maxPerTenant int) (map[string]tenant.Tier, map[string]tenant.Blueprint) {
	return map[string]tenant.Tier{
			"bench": {Name: "bench", MaxInstances: maxPerTenant, AllowedPlans: []string{"t2.medium"}, WarmupWindows: 1},
		}, map[string]tenant.Blueprint{
			"bench": {Name: "bench", Engine: "postgres", Plan: "t2.medium",
				Workload: tenant.WorkloadSpec{Class: "tpcc", SizeGiB: 2, Rate: 1000}},
		}
}

// runFleetBench measures one fleet size end to end.
func runFleetBench(size int, seed int64, parallelism int) (fleetSizePoint, error) {
	const perTenant = 10
	tiers, bps := benchCatalogue(perTenant)
	tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: seed})
	if err != nil {
		return fleetSizePoint{}, err
	}
	svc, err := fleet.New(fleet.Config{
		Seed: seed, Parallelism: parallelism,
		Tuners: []tuner.Tuner{tn}, Tiers: tiers, Blueprints: bps,
	})
	if err != nil {
		return fleetSizePoint{}, err
	}
	tenants := (size + perTenant - 1) / perTenant
	for i := 0; i < size; i++ {
		tid := fmt.Sprintf("bench-%03d", i/perTenant)
		if i%perTenant == 0 {
			if err := svc.CreateTenant(tenant.Tenant{ID: tid, Tier: "bench"}); err != nil {
				return fleetSizePoint{}, err
			}
		}
		if err := svc.CreateDatabase(tid, fleet.DatabaseSpec{ID: fmt.Sprintf("db-%03d", i), Blueprint: "bench"}); err != nil {
			return fleetSizePoint{}, err
		}
	}
	pt := fleetSizePoint{Instances: size, Tenants: tenants}

	// First tick provisions the whole cohort.
	start := time.Now()
	if _, err := svc.Step(5 * time.Minute); err != nil {
		return pt, err
	}
	firstTick := time.Since(start)

	// Steady state: a few windows to measure step and reconcile cost.
	const steadyWindows = 4
	stepHist := obs.Default().Histogram("autodbaas_core_step_seconds", "", nil)
	mergeHist := obs.Default().Histogram("autodbaas_core_step_merge_seconds", "", nil)
	stepSum0, mergeSum0 := stepHist.Sum(), mergeHist.Sum()
	start = time.Now()
	if err := svc.RunFor(steadyWindows*5*time.Minute, 5*time.Minute); err != nil {
		return pt, err
	}
	steady := time.Since(start)
	if d := stepHist.Sum() - stepSum0; d > 0 {
		pt.MergeShare = (mergeHist.Sum() - mergeSum0) / d
	}
	stepPerWindow := steady / steadyWindows

	// The first tick is reconcile(provision all) + one window step;
	// subtract the steady per-window step cost to isolate provisioning.
	prov := firstTick - stepPerWindow
	if prov < 0 {
		prov = 0
	}
	pt.ProvisionMs = float64(prov.Microseconds()) / 1e3
	pt.ProvisionPerInst = float64(prov.Microseconds()) / float64(size)
	pt.StepUsPerOp = float64(stepPerWindow.Microseconds()) / float64(size)

	// An idle reconcile pass (nothing to converge) via a no-churn Step,
	// minus the known step cost, bounds the tick overhead; measure it
	// directly instead through a Step on a converged fleet.
	start = time.Now()
	if _, err := svc.Step(5 * time.Minute); err != nil {
		return pt, err
	}
	converged := time.Since(start)
	rec := converged - stepPerWindow
	if rec < 0 {
		rec = 0
	}
	pt.ReconcileUs = float64(rec.Microseconds())

	// Tear the whole cohort down: mark everything, then two ticks
	// (drain window + removal pass).
	for i := 0; i < tenants; i++ {
		if err := svc.DeleteTenant(fmt.Sprintf("bench-%03d", i)); err != nil {
			return pt, err
		}
	}
	start = time.Now()
	if err := svc.RunFor(2*5*time.Minute, 5*time.Minute); err != nil {
		return pt, err
	}
	pt.DrainMs = float64(time.Since(start).Microseconds()) / 1e3
	if got := svc.Summary().Instances; got != 0 {
		return pt, fmt.Errorf("fleet bench: %d instances survived the drain", got)
	}
	return pt, nil
}

// runFleetScaling produces BENCH_fleet.json.
func runFleetScaling(quick bool, seed int64, parallelism int) string {
	sizes := []int{6, 60, 300}
	if quick {
		sizes = []int{4, 12, 24}
	}
	rep := fleetReport{Quick: quick, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}
	for _, size := range sizes {
		pt, err := runFleetBench(size, seed, parallelism)
		if err != nil {
			return fmt.Sprintf(`{"error":%q}`, err.Error())
		}
		rep.Points = append(rep.Points, pt)
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(raw) + "\n"
}
