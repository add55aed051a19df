package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"autodbaas/internal/sqlparse"
)

// Production substitutes for the paper's 33-day live customer trace:
// 132 tables, 59 GB, an average of 42.13M queries/day composed of 41M
// inserts, 71K selects, 34K updates and 0.8K deletes (an ingest-heavy
// telemetry shape), with the diurnal arrival curve of Figure 8 — a
// pronounced morning surge between 8 AM and 11 AM when "most of the
// microservice usages surge", plus a smaller afternoon shoulder.
//
// The paper's per-class counts do not quite sum to the daily total; the
// remainder is modelled as light dashboard reads (simple selects plus a
// small share of aggregation/join queries that appear during the morning
// reporting window), which is also what gives the TDE's async/planner
// and memory detectors something to observe on this workload.
type Production struct {
	mix *mixSampler
}

// ProductionTables is the table count of the traced customer schema.
const ProductionTables = 132

// ProductionDBSize is the traced database size (59 GB).
const ProductionDBSize = 59 * GiB

// ProductionQueriesPerDay is the traced average daily query volume.
const ProductionQueriesPerDay = 42_130_000.0

// Production's call-site formats. The events_%d sites interpolate a
// table name — one template per table, the point of the 132-table
// schema — through their first verb; every other verb is a literal.
const (
	prodInsertSQL = "INSERT INTO events_%d (device_id, ts, payload) VALUES (%d, %d, '%x')"
	prodLookupSQL = "SELECT payload FROM events_%d WHERE device_id = %d AND ts > %d"
	prodAggSQL    = "SELECT device_id, COUNT(*), MAX(ts) FROM events_%d WHERE ts > %d GROUP BY device_id ORDER BY 2 DESC"
	prodJoinSQL   = "SELECT a.device_id FROM events_%d a JOIN devices d ON a.device_id = d.id WHERE d.region = 'R%d'"
	prodDeleteSQL = "DELETE FROM events_%d WHERE ts < %d"
	devUpdateSQL  = "UPDATE devices SET last_seen = %d WHERE id = %d"
)

// prodTableTemplates are the per-table templates of Production's
// events_%d sites, indexed by table number.
type prodTableTemplates struct {
	insert, lookup, agg, join, del []sqlparse.Template
}

// prodTemplates builds the per-table templates once per process and
// shares them across every Production, so a large fleet's set-up does
// not re-template all 660 variants per generator.
var prodTemplates = sync.OnceValue(func() prodTableTemplates {
	return prodTableTemplates{
		insert: identTpls(prodInsertSQL, ProductionTables, 3),
		lookup: identTpls(prodLookupSQL, ProductionTables, 2),
		agg:    identTpls(prodAggSQL, ProductionTables, 1),
		join:   identTpls(prodJoinSQL, ProductionTables, 1),
		del:    identTpls(prodDeleteSQL, ProductionTables, 1),
	}
})

// NewProduction returns the production-trace generator.
func NewProduction() *Production {
	p := &Production{}
	row := 700.0
	table := func(rng *rand.Rand) int { return rng.Intn(ProductionTables) }
	tpls := prodTemplates()
	devUpdateTpl := litTpl(devUpdateSQL, 0, 0)
	// Each site draws the table before its literals: reordering the
	// draws would change every seeded query stream.
	p.mix = newMixSampler([]choice{
		// Telemetry ingest: the overwhelming majority (41M/day).
		{41_000_000, func(rng *rand.Rand) Query {
			tbl := table(rng)
			return qt(tpls.insert[tbl], fmt.Sprintf(prodInsertSQL, tbl, rng.Intn(500_000), rng.Int63n(2e9), rng.Int63()),
				Profile{WriteBytes: jitter(rng, row), IndexFriendly: true})
		}},
		// Point lookups (71K/day stated + unaccounted remainder ≈ 1M/day).
		{1_000_000, func(rng *rand.Rand) Query {
			tbl := table(rng)
			return qt(tpls.lookup[tbl], fmt.Sprintf(prodLookupSQL, tbl, rng.Intn(500_000), rng.Int63n(2e9)),
				Profile{ReadBytes: jitter(rng, 20*row), IndexFriendly: true})
		}},
		// Dashboard aggregations (reporting, mornings in practice).
		{80_000, func(rng *rand.Rand) Query {
			tbl := table(rng)
			return qt(tpls.agg[tbl], fmt.Sprintf(prodAggSQL, tbl, rng.Int63n(2e9)),
				Profile{MemDemand: jitter(rng, 48*MiB), ReadBytes: jitter(rng, 200*MiB), Parallelizable: true})
		}},
		// Cross-table correlation joins.
		{30_000, func(rng *rand.Rand) Query {
			tbl := table(rng)
			return qt(tpls.join[tbl], fmt.Sprintf(prodJoinSQL, tbl, rng.Intn(20)),
				Profile{MemDemand: jitter(rng, 24*MiB), ReadBytes: jitter(rng, 80*MiB), Parallelizable: true})
		}},
		// Updates (34K/day).
		{34_000, func(rng *rand.Rand) Query {
			return qt(devUpdateTpl, fmt.Sprintf(devUpdateSQL, rng.Int63n(2e9), rng.Intn(500_000)),
				Profile{ReadBytes: jitter(rng, 2*row), WriteBytes: jitter(rng, row), IndexFriendly: true})
		}},
		// Deletes (0.8K/day, retention cleanup).
		{800, func(rng *rand.Rand) Query {
			tbl := table(rng)
			return qt(tpls.del[tbl], fmt.Sprintf(prodDeleteSQL, tbl, rng.Int63n(1e9)),
				Profile{MaintMem: jitter(rng, 16*MiB), ReadBytes: jitter(rng, 10*MiB), WriteBytes: jitter(rng, 5*MiB)})
		}},
	})
	return p
}

// Name implements Generator.
func (p *Production) Name() string { return "production" }

// DBSizeBytes implements Generator.
func (p *Production) DBSizeBytes() float64 { return ProductionDBSize }

// RequestRate implements Generator. The curve integrates to
// approximately ProductionQueriesPerDay over 24 hours: a base load, a
// sharp 8–11 AM surge peaking around 9:30, an afternoon shoulder and a
// low-amplitude ripple from batch jobs.
func (p *Production) RequestRate(at time.Time) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60 + float64(at.Second())/3600
	base := 300.0
	morning := 900 * math.Exp(-sq((h-9.5)/1.4))
	afternoon := 500 * math.Exp(-sq((h-15.0)/2.5))
	ripple := 30 * math.Sin(h*2*math.Pi/1.5)
	r := base + morning + afternoon + ripple
	if r < 0 {
		return 0
	}
	return r
}

func sq(x float64) float64 { return x * x }

// Sample implements Generator.
func (p *Production) Sample(rng *rand.Rand) Query { return p.mix.sample(rng) }

// AdulteratedTPCC is the paper's probe workload (§3.1, Figs. 3–4): plain
// TPCC whose per-query work_mem footprint (~0.5 MB) is too small to
// throttle any memory knob, "adulterated" with the query families that
// pressure each knob class — complex sorts/aggregations (work_mem /
// sort_buffer_size / join_buffer_size), CREATE/DROP INDEX
// (maintenance_work_mem / key_buffer_size), DELETEs
// (maintenance_work_mem), and temp-table aggregations (temp_buffers /
// tmp_table_size).
type AdulteratedTPCC struct {
	base *TPCC
	// P is the adulteration probability: each sampled query is replaced
	// by an adulterant with probability P (the paper plots P=0.8 and 0.5).
	P          float64
	adulterant *mixSampler
}

// NewAdulteratedTPCC wraps a TPCC of the given size/rate with
// adulteration probability p ∈ [0,1].
func NewAdulteratedTPCC(size, rate, p float64) *AdulteratedTPCC {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	a := &AdulteratedTPCC{base: NewTPCC(size, rate), P: p}
	const (
		aggSQL     = "SELECT ol_i_id, SUM(ol_amount), COUNT(*) FROM order_line JOIN stock ON ol_i_id = s_i_id GROUP BY ol_i_id ORDER BY SUM(ol_amount) DESC LIMIT %d"
		sortSQL    = "SELECT c_id, c_balance FROM customer WHERE c_w_id < %d ORDER BY c_balance DESC"
		cleanupSQL = "DELETE FROM history WHERE h_date < %d"
	)
	var (
		aggTpl     = litTpl(aggSQL, 50)
		sortTpl    = litTpl(sortSQL, 20)
		cleanupTpl = litTpl(cleanupSQL, 0)
	)
	a.adulterant = newMixSampler([]choice{
		// Complex sorts/aggregations: ~350 MB of working memory (Fig. 2's
		// "TPCC + aggregation" row).
		{30, func(rng *rand.Rand) Query {
			return qt(aggTpl, fmt.Sprintf(aggSQL, 50+rng.Intn(100)),
				Profile{MemDemand: jitter(rng, 350*MiB), ReadBytes: jitter(rng, 400*MiB), Parallelizable: true})
		}},
		// Heavy standalone sorts.
		{20, func(rng *rand.Rand) Query {
			return qt(sortTpl, fmt.Sprintf(sortSQL, 20+rng.Intn(50)),
				Profile{MemDemand: jitter(rng, 200*MiB), ReadBytes: jitter(rng, 300*MiB), Parallelizable: true})
		}},
		// Index create/drop: maintenance_work_mem pressure.
		{15, func(rng *rand.Rand) Query {
			return q(fmt.Sprintf("CREATE INDEX idx_adult_%d ON order_line (ol_i_id, ol_w_id)", rng.Intn(1000)),
				Profile{MaintMem: jitter(rng, 512*MiB), ReadBytes: jitter(rng, 800*MiB), WriteBytes: jitter(rng, 200*MiB)})
		}},
		{5, func(rng *rand.Rand) Query {
			return q(fmt.Sprintf("DROP INDEX idx_adult_%d", rng.Intn(1000)),
				Profile{MaintMem: jitter(rng, 32*MiB), WriteBytes: jitter(rng, 8*MiB)})
		}},
		// Bulk deletes: maintenance pressure via cleanup.
		{10, func(rng *rand.Rand) Query {
			return qt(cleanupTpl, fmt.Sprintf(cleanupSQL, rng.Int63n(1e9)),
				Profile{MaintMem: jitter(rng, 128*MiB), ReadBytes: jitter(rng, 150*MiB), WriteBytes: jitter(rng, 80*MiB)})
		}},
		// Temp tables + aggregation over them: temp_buffers pressure.
		{20, func(rng *rand.Rand) Query {
			return q(fmt.Sprintf("CREATE TEMP TABLE scratch_%d AS SELECT ol_i_id, SUM(ol_amount) s FROM order_line GROUP BY ol_i_id", rng.Intn(1000)),
				Profile{MemDemand: jitter(rng, 150*MiB), TempBytes: jitter(rng, 400*MiB), ReadBytes: jitter(rng, 400*MiB)})
		}},
	})
	return a
}

// Name implements Generator.
func (a *AdulteratedTPCC) Name() string { return fmt.Sprintf("tpcc-adulterated-%.0f%%", a.P*100) }

// DBSizeBytes implements Generator.
func (a *AdulteratedTPCC) DBSizeBytes() float64 { return a.base.DBSizeBytes() }

// RequestRate implements Generator.
func (a *AdulteratedTPCC) RequestRate(at time.Time) float64 { return a.base.RequestRate(at) }

// Sample implements Generator.
func (a *AdulteratedTPCC) Sample(rng *rand.Rand) Query {
	if rng.Float64() < a.P {
		return a.adulterant.sample(rng)
	}
	return a.base.Sample(rng)
}
