package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"autodbaas/internal/sqlparse"
)

func allGenerators() []Generator {
	return []Generator{
		NewTPCC(26*GiB, 3300),
		NewYCSB(20*GiB, 5000),
		NewWikipedia(12*GiB, 1000),
		NewTwitter(22*GiB, 10000),
		NewTPCH(24*GiB, 40),
		NewCHBench(24*GiB, 2000),
		NewProduction(),
		NewAdulteratedTPCC(21*GiB, 3000, 0.8),
	}
}

func TestGeneratorBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	at := time.Date(2021, 3, 23, 12, 0, 0, 0, time.UTC)
	for _, g := range allGenerators() {
		if g.Name() == "" {
			t.Fatal("empty generator name")
		}
		if g.DBSizeBytes() <= 0 {
			t.Fatalf("%s: non-positive DB size", g.Name())
		}
		if g.RequestRate(at) <= 0 {
			t.Fatalf("%s: non-positive request rate", g.Name())
		}
		for i := 0; i < 50; i++ {
			qq := g.Sample(rng)
			if qq.SQL == "" {
				t.Fatalf("%s: empty SQL", g.Name())
			}
			p := qq.Profile
			if p.MemDemand < 0 || p.MaintMem < 0 || p.TempBytes < 0 || p.ReadBytes < 0 || p.WriteBytes < 0 {
				t.Fatalf("%s: negative profile %+v", g.Name(), p)
			}
		}
	}
}

// The class a generator stamps on a query must match what the TDE's
// sqlparse pipeline infers from the same SQL text — otherwise the
// entropy histograms in the detector would disagree with the generator's
// intent.
func TestClassesAgreeWithSQLParse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range allGenerators() {
		for i := 0; i < 200; i++ {
			qq := g.Sample(rng)
			want := sqlparse.Classify(sqlparse.Normalize(qq.SQL))
			if qq.Class != want {
				t.Fatalf("%s: query %q stamped %v but parses as %v", g.Name(), qq.SQL, qq.Class, want)
			}
		}
	}
}

func TestTPCCIsWriteHeavyWithSmallWorkMem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewTPCC(26*GiB, 3300)
	var writes, total int
	var maxMem float64
	for i := 0; i < 2000; i++ {
		qq := g.Sample(rng)
		total++
		if qq.Profile.WriteBytes > 0 {
			writes++
		}
		if qq.Profile.MemDemand > maxMem {
			maxMem = qq.Profile.MemDemand
		}
	}
	if frac := float64(writes) / float64(total); frac < 0.75 {
		t.Fatalf("TPCC write fraction = %.2f, want ≥ 0.75", frac)
	}
	// Paper Fig. 2: TPCC working memory ≈ 0.5 MB — far below 4 MB default.
	if maxMem > 4*MiB {
		t.Fatalf("TPCC max work-mem demand = %.1f MiB, want ≤ 4 MiB", maxMem/MiB)
	}
}

func TestYCSBAndWikipediaUseNoWorkingMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range []Generator{NewYCSB(20*GiB, 5000), NewWikipedia(12*GiB, 1000)} {
		for i := 0; i < 1000; i++ {
			if mem := g.Sample(rng).Profile.MemDemand; mem != 0 {
				t.Fatalf("%s: working memory demand %g, want 0 (paper Fig. 2)", g.Name(), mem)
			}
		}
	}
}

func TestTPCHDemandsLargeWorkingMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewTPCH(24*GiB, 40)
	var over100 int
	for i := 0; i < 500; i++ {
		if g.Sample(rng).Profile.MemDemand > 100*MiB {
			over100++
		}
	}
	if over100 < 100 {
		t.Fatalf("only %d/500 TPCH queries demand >100 MiB", over100)
	}
}

func TestAdulterationProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := NewAdulteratedTPCC(21*GiB, 3000, 0.8)
	heavy := 0
	const n = 5000
	for i := 0; i < n; i++ {
		qq := g.Sample(rng)
		// Adulterants are exactly the queries with large memory or
		// maintenance or temp demand.
		if qq.Profile.MemDemand > 50*MiB || qq.Profile.MaintMem > 50*MiB || qq.Profile.TempBytes > 0 {
			heavy++
		}
	}
	frac := float64(heavy) / n
	if frac < 0.70 || frac > 0.90 {
		t.Fatalf("adulterant fraction = %.3f, want ≈ 0.8", frac)
	}
	if g.Name() != "tpcc-adulterated-80%" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestAdulterationZeroIsPlainTPCC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewAdulteratedTPCC(21*GiB, 3000, 0)
	for i := 0; i < 1000; i++ {
		qq := g.Sample(rng)
		if qq.Profile.MemDemand > 4*MiB || qq.Profile.TempBytes > 0 {
			t.Fatalf("p=0 emitted adulterant %q", qq.SQL)
		}
	}
}

func TestAdulteratedCoversAllThrottleClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := NewAdulteratedTPCC(21*GiB, 3000, 1.0)
	seen := map[sqlparse.Class]bool{}
	for i := 0; i < 2000; i++ {
		seen[g.Sample(rng).Class] = true
	}
	for _, cls := range []sqlparse.Class{sqlparse.ClassAggregate, sqlparse.ClassSort, sqlparse.ClassIndexDDL, sqlparse.ClassDelete, sqlparse.ClassTempTable} {
		if !seen[cls] {
			t.Fatalf("adulterant mix never produced class %v", cls)
		}
	}
}

func TestProductionMixDominatedByInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := NewProduction()
	var ins, total int
	for i := 0; i < 5000; i++ {
		if g.Sample(rng).Class == sqlparse.ClassInsert {
			ins++
		}
		total++
	}
	if frac := float64(ins) / float64(total); frac < 0.93 {
		t.Fatalf("production insert fraction = %.3f, want ≈ 0.973", frac)
	}
}

func TestProductionArrivalCurve(t *testing.T) {
	g := NewProduction()
	day := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	var integral float64 // queries over the day, minute steps
	peakRate, peakHour := 0.0, 0.0
	for m := 0; m < 24*60; m++ {
		at := day.Add(time.Duration(m) * time.Minute)
		r := g.RequestRate(at)
		if r < 0 {
			t.Fatalf("negative rate at %v", at)
		}
		integral += r * 60
		if r > peakRate {
			peakRate = r
			peakHour = float64(m) / 60
		}
	}
	// Paper: 42.13M queries/day on average; the curve should land within 20%.
	if integral < 0.8*ProductionQueriesPerDay || integral > 1.2*ProductionQueriesPerDay {
		t.Fatalf("daily volume = %.1fM, want ≈ 42.13M", integral/1e6)
	}
	// Peak must fall in the 8–11 AM microservice surge window.
	if peakHour < 8 || peakHour > 11 {
		t.Fatalf("peak at hour %.2f, want within [8, 11]", peakHour)
	}
	// Night load must be well below the peak.
	night := g.RequestRate(day.Add(3 * time.Hour))
	if night > peakRate/2 {
		t.Fatalf("night rate %.0f not well below peak %.0f", night, peakRate)
	}
}

func TestCHBenchMixesOLTPAndOLAP(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := NewCHBench(24*GiB, 2000)
	var heavy int
	const n = 5000
	for i := 0; i < n; i++ {
		if g.Sample(rng).Profile.MemDemand > 50*MiB {
			heavy++
		}
	}
	frac := float64(heavy) / n
	if frac < 0.02 || frac > 0.10 {
		t.Fatalf("CH-bench analytic fraction = %.3f, want ≈ 0.05", frac)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"tpcc", "ycsb", "wikipedia", "twitter", "tpch", "chbench", "production"} {
		g, err := Registry(name)
		if err != nil {
			t.Fatalf("Registry(%s): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("Registry(%s).Name() = %s", name, g.Name())
		}
	}
	if _, err := Registry("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestFixedRateOverride(t *testing.T) {
	g := FixedRate{Generator: NewProduction(), Rate: 123}
	if got := g.RequestRate(time.Now()); got != 123 {
		t.Fatalf("rate = %g", got)
	}
	if g.Name() != "production" {
		t.Fatal("FixedRate must delegate Name")
	}
}

func TestWindowLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qs := Window(NewYCSB(GiB, 100), rng, 17)
	if len(qs) != 17 {
		t.Fatalf("window length %d", len(qs))
	}
}

func TestSampleDeterministicForSeed(t *testing.T) {
	g := NewTwitter(22*GiB, 10000)
	a := Window(g, rand.New(rand.NewSource(99)), 20)
	b := Window(g, rand.New(rand.NewSource(99)), 20)
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatalf("non-deterministic sampling at %d: %q vs %q", i, a[i].SQL, b[i].SQL)
		}
	}
}

// TestGeneratorTemplatesMatchSQL enforces the litTpl contract: for every
// generator, a sampled query's precomputed Template must equal what
// sqlparse derives from its SQL text. The engine's query log carries
// these templates to the TDE, so they are its only source. A mismatch
// means a call site used litTpl on a format that interpolates
// identifiers. Trace replay and the Switch and Schedule wrappers pass
// templates through and are checked on both sides of their shift.
func TestGeneratorTemplatesMatchSQL(t *testing.T) {
	type source struct {
		name   string
		sample func(rng *rand.Rand, i int) Query
	}
	plain := func(g Generator) source {
		return source{g.Name(), func(rng *rand.Rand, _ int) Query { return g.Sample(rng) }}
	}
	var srcs []source
	for _, g := range []Generator{
		NewTPCC(4*GiB, 500),
		NewYCSB(4*GiB, 500),
		NewWikipedia(4*GiB, 500),
		NewTwitter(4*GiB, 500),
		NewTPCH(4*GiB, 10),
		NewCHBench(4*GiB, 500),
		NewProduction(),
		NewAdulteratedTPCC(4*GiB, 500, 0.8),
	} {
		srcs = append(srcs, plain(g))
	}

	var buf bytes.Buffer
	if err := RecordTrace(&buf, NewProduction(), rand.New(rand.NewSource(7)), 500); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(&buf, "replay", 4*GiB, 500)
	if err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs, plain(tr))

	sw := NewSwitch(NewTPCC(4*GiB, 500), NewTPCH(4*GiB, 10))
	srcs = append(srcs, source{"switch", func(rng *rand.Rand, i int) Query {
		if i == 1000 {
			sw.Flip()
		}
		return sw.Sample(rng)
	}})

	t0 := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	sched := NewSchedule(
		SchedulePhase{From: t0, Gen: NewYCSB(4*GiB, 500)},
		SchedulePhase{From: t0.Add(time.Hour), Gen: NewCHBench(4*GiB, 500)},
	)
	srcs = append(srcs, source{"schedule", func(rng *rand.Rand, i int) Query {
		if i%2 == 0 {
			return sched.Sample(rng)
		}
		return sched.SampleAt(rng, t0.Add(time.Duration(i)*time.Hour/1000)) // both phases
	}})

	rng := rand.New(rand.NewSource(41))
	for _, src := range srcs {
		for i := 0; i < 2000; i++ {
			qq := src.sample(rng, i)
			want := sqlparse.TemplateOf(qq.SQL)
			if qq.Template != want {
				t.Fatalf("%s: precomputed template diverges for %q:\n  have %+v\n  want %+v", src.name, qq.SQL, qq.Template, want)
			}
			if qq.Class != want.Class {
				t.Fatalf("%s: class %v != template class %v for %q", src.name, qq.Class, want.Class, qq.SQL)
			}
		}
	}
}

// TestIdentifierTemplatesMatchSQL checks every precomputed entry of the
// identifier-interpolating sites — Production's five events_%d sites
// over all 132 tables and YCSB's ten update fields — against TemplateOf
// of an instantiation with random literal arguments. Sampling alone
// would almost never reach every table of the rare delete site.
func TestIdentifierTemplatesMatchSQL(t *testing.T) {
	type site struct {
		format  string
		n, lits int
		tpls    []sqlparse.Template
	}
	pt := prodTemplates()
	sites := []site{
		{prodInsertSQL, ProductionTables, 3, pt.insert},
		{prodLookupSQL, ProductionTables, 2, pt.lookup},
		{prodAggSQL, ProductionTables, 1, pt.agg},
		{prodJoinSQL, ProductionTables, 1, pt.join},
		{prodDeleteSQL, ProductionTables, 1, pt.del},
		{ycsbUpdateSQL, ycsbFields, 2, NewYCSB(4*GiB, 500).updateTpls},
	}
	rng := rand.New(rand.NewSource(43))
	for _, s := range sites {
		if len(s.tpls) != s.n {
			t.Fatalf("%q: %d templates, want %d", s.format, len(s.tpls), s.n)
		}
		seen := make(map[string]bool, len(s.tpls))
		for i, tpl := range s.tpls {
			args := []any{i}
			for j := 0; j < s.lits; j++ {
				args = append(args, rng.Int63())
			}
			sql := fmt.Sprintf(s.format, args...)
			if got := sqlparse.TemplateOf(sql); tpl != got {
				t.Fatalf("entry %d of %q diverges for %q:\n  have %+v\n  want %+v", i, s.format, sql, tpl, got)
			}
			seen[tpl.ID] = true
		}
		if len(seen) != len(s.tpls) {
			t.Fatalf("%q: %d distinct templates over %d identifiers", s.format, len(seen), len(s.tpls))
		}
	}
}
