package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/knobs"
	"autodbaas/internal/safety"
	"autodbaas/internal/scenario"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
	simload "autodbaas/internal/workload"
	"autodbaas/scenarios"
)

// workload is one benchmark input family. Every input the program
// receives — blueprint mix, load shapes, churn schedule and engine
// seeds — is drawn from the run's seed through the fleetRun's rng.
type workload struct {
	name string
	// window is the virtual length of one fleet step.
	window time.Duration
	// detWindows is the fixed length of one pass's measured phase: every
	// pass of a seed does the same work, and counts, checkpoint size and
	// the fingerprint, taken after it, repeat exactly.
	detWindows int
	// passes is how many identical passes an untraced run makes, each
	// from a fresh set-up: the end-to-end window times take, window by
	// window, the fastest pass.
	passes int
	// checkpointEvery takes a fleet checkpoint whenever the service's
	// window count is a multiple of it (0: never).
	checkpointEvery int
	// sloP99Ms is the per-instance window P99 limit slo_violations
	// counts against.
	sloP99Ms float64
	// newService builds the empty service; declare declares the
	// initial fleet on it.
	newService func(r *fleetRun) error
	declare    func(r *fleetRun) error
	// drive makes the tenant API calls due in measured window w; nil
	// makes none, as `autodbaas -serve` makes none on its own.
	drive func(r *fleetRun, w int)
}

// size scales a workload; tiny is the smoke test's size.
type size struct {
	steadyDBs, stormDBs, churnDBs int
	steadyDet, stormDet, churnDet int
	churnCheckpointEvery          int
	// servePool is the `autodbaas -serve` tuner pool; campaignPool is
	// the one the scenario runner replays library campaigns with.
	servePool, campaignPool pool
}

// pool sizes the BO search of a pool of three tuners.
type pool struct{ candidates, maxSamplesPerFit int }

var fullSize = size{
	steadyDBs: 300, stormDBs: 48, churnDBs: 60,
	steadyDet: 10, stormDet: 60, churnDet: 48,
	churnCheckpointEvery: 12,
	servePool:            pool{200, 150},
	campaignPool:         pool{60, 60},
}

var tinySize = size{
	steadyDBs: 6, stormDBs: 4, churnDBs: 6,
	steadyDet: 2, stormDet: 3, churnDet: 4,
	churnCheckpointEvery: 2,
	servePool:            pool{20, 20},
	campaignPool:         pool{20, 20},
}

// seedBlueprints is the -serve bootstrap cycle: postgres templates,
// since the tuners are postgres-trained. Without the safety gate, a
// mysql database in such a pool fails every recommendation's apply
// ("unknown knob"), an instance-window error; only tuning-storm, which
// runs the gate, mixes in mysql-kv.
var seedBlueprints = []string{"pg-oltp-small", "pg-web", "pg-production"}

// workloads lists the benchmark's workloads by name.
func workloads(sz size) map[string]*workload {
	return map[string]*workload{
		// Per-instance stepping at the 300-instance point: the TDE and
		// the ordered merge, with the tuner nearly idle.
		"steady-fleet": {
			name:       "steady-fleet",
			window:     5 * time.Minute,
			detWindows: sz.steadyDet,
			passes:     3,
			sloP99Ms:   500,
			newService: func(r *fleetRun) error { return r.flat(sz.servePool, nil) },
			declare: func(r *fleetRun) error {
				return r.declare(mix(r.rng, sz.steadyDBs, seedBlueprints), noShape)
			},
		},
		// Tuning dominates: drifting and spiking load re-opens tuning
		// rounds, and every recommendation passes the safety gate.
		"tuning-storm": {
			name:       "tuning-storm",
			window:     15 * time.Minute,
			detWindows: sz.stormDet,
			passes:     3,
			sloP99Ms:   500,
			// The campaign's tuner pool, not -serve's: with MaxSamplesPerFit
			// 150, a recommendation's cost followed its training set, whose
			// size turned on which workloads the seed's fleet mapped to.
			newService: func(r *fleetRun) error {
				opts := safety.DefaultOptions()
				return r.flat(sz.campaignPool, &opts)
			},
			declare: func(r *fleetRun) error {
				shapes, err := stormShapes()
				if err != nil {
					return err
				}
				bps := make([]string, 0, len(shapes))
				for bp := range shapes {
					bps = append(bps, bp)
				}
				sort.Strings(bps)
				// Each blueprint's databases take onsets evenly spaced
				// over a stretch as long as the measured phase, in
				// declaration order: every seed offers the same load,
				// placed on different databases, and every part of the
				// measured phase has databases under drift or spike.
				per := sz.stormDBs / len(bps)
				span := sz.stormDet * 15
				dealt := map[string]int{}
				return r.declare(mix(r.rng, sz.stormDBs, bps), func(bp string) *simload.Shape {
					i := dealt[bp]
					dealt[bp]++
					return shifted(shapes[bp], i*span/max(1, per))
				})
			},
		},
		// The write path: reconcile, provisioning, shard RPC, rebalance
		// and the checkpoint codec.
		"churn-sharded": {
			name:            "churn-sharded",
			window:          5 * time.Minute,
			detWindows:      sz.churnDet,
			passes:          2,
			checkpointEvery: sz.churnCheckpointEvery,
			sloP99Ms:        500,
			newService:      func(r *fleetRun) error { return r.sharded(sz) },
			declare: func(r *fleetRun) error {
				return r.declare(mix(r.rng, sz.churnDBs, seedBlueprints), noShape)
			},
			drive: churn,
		},
	}
}

// mix returns n blueprint names, an equal share of each, in a seeded
// order: the seed moves which database gets which blueprint but not
// how much work the mix is.
func mix(rng *rand.Rand, n int, names []string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = names[i%len(names)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stormCampaign is the library campaign whose per-database load shapes
// tuning-storm replays.
const stormCampaign = "tuning-regression"

// stormShapes returns the load shape of each database of stormCampaign,
// by blueprint: a drift plus a spike, and a diurnal curve on postgres.
func stormShapes() (map[string]simload.Shape, error) {
	src, err := scenarios.Source(stormCampaign)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	out := map[string]simload.Shape{}
	for _, t := range sc.Tenants {
		for _, db := range t.Databases {
			out[db.Blueprint] = db.Load
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign %s declares no databases", stormCampaign)
	}
	return out, nil
}

// shifted returns s with every term moved later by byMin minutes.
func shifted(s simload.Shape, byMin int) *simload.Shape {
	out := simload.Shape{OffsetMin: s.OffsetMin, Terms: append([]simload.Term(nil), s.Terms...)}
	for i := range out.Terms {
		t := &out.Terms[i]
		if t.Kind == simload.TermDiurnal {
			t.PeakMin = (t.PeakMin + byMin) % (24 * 60)
		} else {
			t.AtMin += byMin
		}
	}
	return &out
}

// stormy reports whether a drift of s is ramping or a spike of s is on
// at some point of the virtual minutes [from, to).
func stormy(s *simload.Shape, from, to int) bool {
	if s == nil {
		return false
	}
	for _, t := range s.Terms {
		if t.Kind != simload.TermDrift && t.Kind != simload.TermSpike {
			continue
		}
		at := t.AtMin - s.OffsetMin
		if from < at+t.DurMin && at < to {
			return true
		}
	}
	return false
}

// tunerPool builds a pool of three BO tuners.
func tunerPool(p pool, seed int64) ([]tuner.Tuner, error) {
	out := make([]tuner.Tuner, 0, 3)
	for i := 0; i < 3; i++ {
		t, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: p.candidates, MaxSamplesPerFit: p.maxSamplesPerFit, UCBBeta: 0.5, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// flat builds a flat-engine service at Parallelism 2.
func (r *fleetRun) flat(p pool, gate *safety.Options) error {
	tuners, err := tunerPool(p, r.engineSeed)
	if err != nil {
		return err
	}
	r.svc, err = fleet.New(fleet.Config{Seed: r.engineSeed, Parallelism: 2, Tuners: tuners, Safety: gate})
	return err
}

// churnShards is the shard map of churn-sharded.
var churnShards = []string{"s0", "s1"}

// sharded builds a service over two shard servers on unix sockets, each
// configured as `autodbaas -serve -shard-map` configures its workers,
// at Parallelism 1 and without fault injection: under every injecting
// profile, crashed engines fail instance-windows, and the benchmark's
// workloads must run without failed operations.
func (r *fleetRun) sharded(sz size) error {
	engineSeed := r.engineSeed
	cfgs := make([]shard.Config, len(churnShards))
	for i, name := range churnShards {
		cfgs[i] = shard.Config{
			Name:        name,
			Seed:        engineSeed + int64(i+1)*1_000_003,
			Parallelism: 1,
			Tuner: shard.TunerConfig{
				Count:            3,
				Seed:             engineSeed + int64(i+1)*7,
				Engine:           "postgres",
				Candidates:       sz.servePool.candidates,
				MaxSamplesPerFit: sz.servePool.maxSamplesPerFit,
				UCBBeta:          0.5,
			},
		}
	}
	farm, hosts, err := startFarm(filepath.Join(r.dir, "sock"), cfgs, r.tr)
	if err != nil {
		return err
	}
	r.farm = farm
	svc, err := fleet.New(fleet.Config{Seed: engineSeed, ShardHosts: hosts})
	if err != nil {
		for _, h := range hosts {
			h.Close()
		}
		return err
	}
	r.svc = svc
	return nil
}

func noShape(string) *simload.Shape { return nil }

// declare creates the initial fleet, one database per blueprint entry,
// in standard-tier tenants of tenantSize databases each.
func (r *fleetRun) declare(bps []string, shape func(bp string) *simload.Shape) error {
	for i, bp := range bps {
		tid := fmt.Sprintf("t%02d", i/tenantSize)
		if i%tenantSize == 0 {
			if err := r.svc.CreateTenant(tenant.Tenant{ID: tid, Name: "bench", Tier: standardTier.Name}); err != nil {
				return err
			}
		}
		spec := fleet.DatabaseSpec{ID: fmt.Sprintf("db-%03d", i), Blueprint: bp, Shape: shape(bp)}
		r.shapes = append(r.shapes, spec.Shape)
		if err := r.svc.CreateDatabase(tid, spec); err != nil {
			return err
		}
	}
	return nil
}

// tenantSize leaves room under the standard tier's 16-instance quota
// for churn-sharded's creates while deleted databases drain.
const tenantSize = 12

// standardTier is the tier every benchmark tenant is on.
var standardTier = tenant.DefaultTiers()["standard"]

// unevenSplit returns the blueprint whose databases are split most
// unevenly between churnShards, the shard holding more of them and the
// other; ties go to the earlier blueprint of seedBlueprints.
func unevenSplit(split map[string]map[string]int) (bp, from, to string) {
	best := -1
	for _, b := range seedBlueprints {
		a, c := split[b][churnShards[0]], split[b][churnShards[1]]
		f, t := churnShards[0], churnShards[1]
		if c > a {
			a, c, f, t = c, a, t, f
		}
		if a-c > best {
			best, bp, from, to = a-c, b, f, t
		}
	}
	return bp, from, to
}

// dbRow is one database of a fleet listing, with its tenant.
type dbRow struct {
	tenant string
	fleet.DatabaseStatus
}

// churn lists the fleet, then deletes one tuned database, creates one,
// resizes one and rebalances one onto its other shard. The seed picks
// which databases, tenants, blueprints and plans; the counts are fixed,
// so every window of every seed does the same kinds and amount of work.
//
// The rebalance moves a database of the blueprint whose databases are
// split most unevenly between the shards, from the shard holding more
// of them. A window's Step waits for the busier shard, and blueprints
// differ in cost; random moves would let the shards' loads wander
// apart, and window time with them, differently for every seed.
func churn(r *fleetRun, w int) {
	var tenants []fleet.TenantStatus
	r.api("list-tenants", func() error { tenants = r.svc.ListTenants(); return nil })
	var tuned []dbRow
	live := make(map[string]int)
	// split counts live databases by blueprint, then shard.
	split := make(map[string]map[string]int)
	for _, t := range tenants {
		for _, db := range t.Databases {
			live[t.ID]++
			if !db.Deleting {
				if split[db.Blueprint] == nil {
					split[db.Blueprint] = map[string]int{}
				}
				split[db.Blueprint][db.Shard]++
			}
			if db.Phase == tenant.Tuned.String() && !db.Deleting && db.PendingPlan == "" {
				tuned = append(tuned, dbRow{tenant: t.ID, DatabaseStatus: db})
			}
		}
	}
	// pick removes and returns a seeded choice among the tuned databases
	// that ok accepts.
	pick := func(ok func(dbRow) bool) (dbRow, bool) {
		var idx []int
		for i, row := range tuned {
			if ok(row) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return dbRow{}, false
		}
		i := idx[r.rng.Intn(len(idx))]
		row := tuned[i]
		tuned = append(tuned[:i], tuned[i+1:]...)
		return row, true
	}
	anyDB := func(dbRow) bool { return true }

	if row, ok := pick(anyDB); ok {
		r.api("delete-database", func() error { return r.svc.DeleteDatabase(row.tenant, row.ID) })
	}
	tids := make([]string, 0, len(live))
	for tid := range live {
		tids = append(tids, tid)
	}
	sort.Strings(tids)
	var room []string
	for _, tid := range tids {
		if live[tid] < standardTier.MaxInstances {
			room = append(room, tid)
		}
	}
	if len(room) > 0 {
		tid := room[r.rng.Intn(len(room))]
		spec := fleet.DatabaseSpec{ID: fmt.Sprintf("c%04d", w), Blueprint: seedBlueprints[r.rng.Intn(len(seedBlueprints))]}
		r.api("create-database", func() error { return r.svc.CreateDatabase(tid, spec) })
	}
	if row, ok := pick(anyDB); ok {
		var to []string
		for _, p := range standardTier.AllowedPlans {
			if p != row.Plan {
				to = append(to, p)
			}
		}
		plan := to[r.rng.Intn(len(to))]
		r.api("resize-database", func() error { return r.svc.ResizeDatabase(row.tenant, row.ID, plan) })
	}
	bp, from, to := unevenSplit(split)
	if row, ok := pick(func(row dbRow) bool { return row.Blueprint == bp && row.Shard == from }); ok {
		r.api("rebalance", func() error { return r.svc.Rebalance(row.tenant, row.ID, to) })
	} else if row, ok := pick(anyDB); ok {
		to := churnShards[0]
		if row.Shard == to {
			to = churnShards[1]
		}
		r.api("rebalance", func() error { return r.svc.Rebalance(row.tenant, row.ID, to) })
	}
}
