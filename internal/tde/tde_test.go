package tde

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/simdb"
	"autodbaas/internal/workload"
)

func newEngine(t *testing.T, eng knobs.Engine, size float64) *simdb.Engine {
	t.Helper()
	e, err := simdb.NewEngine(simdb.Options{
		Engine:      eng,
		Resources:   simdb.Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true},
		DBSizeBytes: size,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newTDE(t *testing.T, db *simdb.Engine) *TDE {
	t.Helper()
	td, err := New(db, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

// drive runs n windows of gen and a TDE tick after each, returning all
// events.
func drive(t *testing.T, db *simdb.Engine, td *TDE, gen workload.Generator, n int, win time.Duration) []Event {
	t.Helper()
	var events []Event
	for i := 0; i < n; i++ {
		if _, err := db.RunWindow(gen, win); err != nil {
			t.Fatal(err)
		}
		events = append(events, td.Tick()...)
	}
	return events
}

func countKind(events []Event, k EventKind) int {
	var n int
	for _, e := range events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func countClass(events []Event, c knobs.Class) int {
	var n int
	for _, e := range events {
		if e.Kind == KindThrottle && e.Class == c {
			n++
		}
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, DefaultConfig(), nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	db := newEngine(t, knobs.Postgres, workload.GiB)
	if _, err := New(db, Config{}, nil); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestMemoryThrottlesOnSpillingWorkload(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	events := drive(t, db, td, gen, 6, 5*time.Minute)
	if got := countClass(events, knobs.Memory); got == 0 {
		t.Fatal("adulterated TPCC raised no memory throttles")
	}
	counts := td.Throttles()
	if counts[knobs.Memory] == 0 {
		t.Fatal("memory throttle counter not updated")
	}
}

func TestPlainTPCCRaisesNoMemoryThrottles(t *testing.T) {
	// Paper Fig. 2: plain TPCC's 0.5MB work-mem demand cannot throttle
	// any memory knob.
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTPCC(21*workload.GiB, 3000)
	events := drive(t, db, td, gen, 6, 5*time.Minute)
	if got := countClass(events, knobs.Memory); got != 0 {
		t.Fatalf("plain TPCC raised %d memory throttles", got)
	}
}

func TestWriteHeavyRaisesBgWriterThrottles(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 26*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	events := drive(t, db, td, gen, 12, 5*time.Minute)
	if got := countClass(events, knobs.BgWriter); got == 0 {
		t.Fatal("write-heavy TPCC at default checkpointing raised no bgwriter throttles")
	}
}

func TestTunedBgWriterQuiet(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 26*workload.GiB)
	tuned := knobs.Config{
		"max_wal_size":                 32 * workload.GiB,
		"checkpoint_timeout":           3_600_000,
		"checkpoint_completion_target": 0.9,
		"bgwriter_lru_maxpages":        1000,
		"bgwriter_delay":               20,
	}
	if err := db.ApplyConfig(tuned, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	td := newTDE(t, db)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	events := drive(t, db, td, gen, 12, 5*time.Minute)
	defDB := newEngine(t, knobs.Postgres, 26*workload.GiB)
	defTD := newTDE(t, defDB)
	defEvents := drive(t, defDB, defTD, gen, 12, 5*time.Minute)
	if got, def := countClass(events, knobs.BgWriter), countClass(defEvents, knobs.BgWriter); got >= def {
		t.Fatalf("tuned bgwriter throttles (%d) not below default (%d)", got, def)
	}
}

func TestAsyncPlannerProbesFindProfit(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 24*workload.GiB)
	// Hostile planner estimates: plenty of profit for the MDP to find.
	// work_mem is set generously so spill costs don't mask the
	// planner-knob signal (memory tuning is the other detector's job).
	if err := db.ApplyConfig(knobs.Config{
		"random_page_cost": 10, "seq_page_cost": 4.0, "cpu_tuple_cost": 0.001,
		"work_mem": 64 * 1024 * 1024,
	}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	td := newTDE(t, db)
	gen := workload.NewTwitter(24*workload.GiB, 8000)
	events := drive(t, db, td, gen, 20, 2*time.Minute)
	if got := countClass(events, knobs.AsyncPlanner); got == 0 {
		t.Fatal("MDP probes found no profit under hostile planner estimates")
	}
}

func TestBufferAdvisoryWhenWorkingSetExceedsPool(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 30*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewTwitter(30*workload.GiB, 10000)
	events := drive(t, db, td, gen, 10, time.Minute)
	var advisories int
	for _, e := range events {
		if e.Kind == KindBufferAdvisory {
			advisories++
			if e.WorkingSet <= 0 || e.Knob != "shared_buffers" {
				t.Fatalf("bad advisory %+v", e)
			}
		}
	}
	if advisories == 0 {
		t.Fatal("no buffer advisory despite 30GB working data on 128MB pool")
	}
}

func TestEntropyFilterConvertsCapSaturationToPlanUpgrade(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	// work_mem high enough that the TDE's budgeted footprint
	// (8 sessions × work_mem + pool + maintenance areas) crosses 85% of
	// the 8GB instance — the "limits reached the caps" condition —
	// while maintenance/temp demands keep spilling against defaults.
	if err := db.ApplyConfig(knobs.Config{"work_mem": 860 * 1024 * 1024}, simdb.ApplyReload); err != nil {
		t.Fatal(err)
	}
	td := newTDE(t, db)
	td.filter.EntropyThreshold = 0.2 // evenly mixed classes easily clear this
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.9)
	events := drive(t, db, td, gen, 30, 5*time.Minute)
	if countKind(events, KindPlanUpgrade) == 0 {
		t.Fatal("sustained at-cap throttles never converted to a plan-upgrade signal")
	}
	// Upgrades are counted separately from throttles.
	if td.Upgrades() == 0 {
		t.Fatal("upgrade counter not updated")
	}
}

func TestThrottleCountersAndTicks(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	events := drive(t, db, td, gen, 5, 5*time.Minute)
	if td.Ticks() != 5 {
		t.Fatalf("ticks = %d", td.Ticks())
	}
	var throttles int
	for _, e := range events {
		if e.Kind == KindThrottle {
			throttles++
		}
	}
	var sum int
	for _, v := range td.Throttles() {
		sum += v
	}
	if sum != throttles {
		t.Fatalf("counter sum %d != events %d", sum, throttles)
	}
}

func TestMySQLKnobMapping(t *testing.T) {
	db := newEngine(t, knobs.MySQL, 21*workload.GiB)
	td := newTDE(t, db)
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	events := drive(t, db, td, gen, 8, 5*time.Minute)
	kcat := db.KnobCatalog()
	for _, e := range events {
		if e.Knob == "" {
			continue
		}
		def := kcat.Def(e.Knob)
		if def == nil {
			t.Fatalf("event names unknown mysql knob %q", e.Knob)
		}
		if e.Kind == KindThrottle && def.Class != e.Class {
			t.Fatalf("event class %v but knob %s is %v", e.Class, e.Knob, def.Class)
		}
	}
	if countClass(events, knobs.Memory) == 0 {
		t.Fatal("mysql adulterated workload raised no memory throttles")
	}
}

func TestEventKindString(t *testing.T) {
	if KindThrottle.String() != "throttle" || KindPlanUpgrade.String() != "plan-upgrade" ||
		KindBufferAdvisory.String() != "buffer-advisory" || EventKind(9).String() != "unknown" {
		t.Fatal("event kind strings wrong")
	}
}

func TestDefaultBaselineValues(t *testing.T) {
	b := DefaultBaseline()
	r, l, ok := b.BgWriterBaseline(nil)
	if !ok || l != 2.0 || r <= 0 {
		t.Fatalf("baseline = %g/%g/%v", r, l, ok)
	}
}

// TestRestoresTemplatesWithRetiredLastArgsSQL: checkpoints written while
// TemplateStats still carried a LastArgsSQL field restore unchanged.
func TestRestoresTemplatesWithRetiredLastArgsSQL(t *testing.T) {
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	drive(t, db, td, workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8), 2, 5*time.Minute)
	want := td.CheckpointState()
	if len(want.Templates) == 0 {
		t.Fatal("no templates observed")
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	var tpls map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["templates"], &tpls); err != nil {
		t.Fatal(err)
	}
	for _, st := range tpls {
		st["LastArgsSQL"] = json.RawMessage(`"SELECT 1"`)
	}
	if doc["templates"], err = json.Marshal(tpls); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	var old State
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	restored := newTDE(t, db)
	if err := restored.RestoreCheckpointState(old); err != nil {
		t.Fatal(err)
	}
	if got := restored.CheckpointState().Templates; !reflect.DeepEqual(got, want.Templates) {
		t.Fatalf("restored templates differ:\n  got  %+v\n  want %+v", got, want.Templates)
	}
}

// mutableBaseline is a Baseline whose reference a test can move between
// Prepare and Finish.
type mutableBaseline struct{ ckptPerSec, latMs float64 }

func (b *mutableBaseline) BgWriterBaseline(metrics.Snapshot) (float64, float64, bool) {
	return b.ckptPerSec, b.latMs, true
}

func stateJSON(t *testing.T, td *TDE) string {
	t.Helper()
	raw, err := json.Marshal(td.CheckpointState())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPrepareFinishMatchesTick: a fleet-shaped schedule — run every
// instance's window, Prepare all of them concurrently, then Finish them
// in order — yields the same events, counters and checkpoint state as
// Tick after each window, on a Postgres and a MySQL engine.
func TestPrepareFinishMatchesTick(t *testing.T) {
	const windows = 60
	engines := []knobs.Engine{knobs.Postgres, knobs.MySQL}
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.5)
	var ref, split []*simdb.Engine
	var refTD, splitTD []*TDE
	for _, eng := range engines {
		for _, arm := range []*[]*simdb.Engine{&ref, &split} {
			*arm = append(*arm, newEngine(t, eng, 21*workload.GiB))
		}
		refTD = append(refTD, newTDE(t, ref[len(ref)-1]))
		splitTD = append(splitTD, newTDE(t, split[len(split)-1]))
	}
	classes := map[knobs.Class]bool{}
	for w := 0; w < windows; w++ {
		for i := range engines {
			for _, db := range []*simdb.Engine{ref[i], split[i]} {
				if _, err := db.RunWindow(gen, 5*time.Minute); err != nil {
					t.Fatal(err)
				}
			}
		}
		rounds := make([]*Round, len(engines))
		var wg sync.WaitGroup
		for i := range engines {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rounds[i] = splitTD[i].Prepare()
			}(i)
		}
		wg.Wait()
		for i := range engines {
			want := refTD[i].Tick()
			got := splitTD[i].Finish(rounds[i])
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s window %d: events differ:\n  split %v\n  tick  %v", engines[i], w, got, want)
			}
			for _, ev := range got {
				if ev.Kind == KindThrottle {
					classes[ev.Class] = true
				}
			}
		}
	}
	for i := range engines {
		if !reflect.DeepEqual(splitTD[i].Throttles(), refTD[i].Throttles()) ||
			splitTD[i].Upgrades() != refTD[i].Upgrades() || splitTD[i].Ticks() != refTD[i].Ticks() {
			t.Fatalf("%s: counters differ: split %v/%d/%d, tick %v/%d/%d", engines[i],
				splitTD[i].Throttles(), splitTD[i].Upgrades(), splitTD[i].Ticks(),
				refTD[i].Throttles(), refTD[i].Upgrades(), refTD[i].Ticks())
		}
		if stateJSON(t, splitTD[i]) != stateJSON(t, refTD[i]) {
			t.Fatalf("%s: checkpoint state differs after %d windows", engines[i], windows)
		}
	}
	if !classes[knobs.Memory] || !classes[knobs.BgWriter] {
		t.Fatalf("schedule raised throttles of classes %v; need memory and bgwriter to compare", classes)
	}
}

// TestFinishReadsBaselineAtFinish: swapping the baseline between
// Prepare and Finish changes the bgwriter event and nothing else — the
// round reads the baseline when it finishes, not when it is prepared.
func TestFinishReadsBaselineAtFinish(t *testing.T) {
	const windows = 12
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	low := mutableBaseline{ckptPerSec: 1e-9, latMs: 1e-3} // any pressure throttles
	high := mutableBaseline{ckptPerSec: 1e3, latMs: 1e3}  // no pressure throttles
	arm := func(b Baseline) (*simdb.Engine, *TDE) {
		db := newEngine(t, knobs.Postgres, 26*workload.GiB)
		td, err := New(db, DefaultConfig(), b)
		if err != nil {
			t.Fatal(err)
		}
		return db, td
	}
	lowB, highB := low, high
	swapped := high
	lowDB, lowTD := arm(&lowB)
	highDB, highTD := arm(&highB)
	swapDB, swapTD := arm(&swapped)
	withoutBgWriter := func(evs []Event) string {
		var keep []Event
		for _, ev := range evs {
			if ev.Class != knobs.BgWriter {
				keep = append(keep, ev)
			}
		}
		return fmt.Sprint(keep)
	}
	var bgEvents, otherEvents int
	for w := 0; w < windows; w++ {
		for _, db := range []*simdb.Engine{lowDB, highDB, swapDB} {
			if _, err := db.RunWindow(gen, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		swapped = high
		r := swapTD.Prepare()
		swapped = low
		got := swapTD.Finish(r)
		if want := lowTD.Tick(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("window %d: swapped round differs from one run at the finish-time baseline:\n  got  %v\n  want %v", w, got, want)
		}
		if got, want := withoutBgWriter(got), withoutBgWriter(highTD.Tick()); got != want {
			t.Fatalf("window %d: swapping the baseline changed non-bgwriter events:\n  got  %v\n  want %v", w, got, want)
		}
		bgEvents += countClass(got, knobs.BgWriter)
		otherEvents += len(got) - countClass(got, knobs.BgWriter)
	}
	if bgEvents == 0 || otherEvents == 0 {
		t.Fatalf("%d bgwriter and %d other events; the swap needs both to be observed", bgEvents, otherEvents)
	}
	if n := highTD.Throttles()[knobs.BgWriter]; n != 0 {
		t.Fatalf("high baseline still raised %d bgwriter throttles", n)
	}
}

// TestFinishRejectsNilRepeatedAndForeignRounds: Finish of nil, of a
// round already finished, or of another TDE's round returns no events
// and leaves counters and state untouched.
func TestFinishRejectsNilRepeatedAndForeignRounds(t *testing.T) {
	gen := workload.NewAdulteratedTPCC(21*workload.GiB, 3000, 0.8)
	db := newEngine(t, knobs.Postgres, 21*workload.GiB)
	td := newTDE(t, db)
	other := newTDE(t, newEngine(t, knobs.Postgres, 21*workload.GiB))
	if _, err := db.RunWindow(gen, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	r := td.Prepare()
	if evs := td.Finish(r); len(evs) == 0 {
		t.Fatal("spill-heavy window raised no events; nothing to double-count")
	}
	before := stateJSON(t, td)
	otherBefore := stateJSON(t, other)
	for name, evs := range map[string][]Event{
		"nil":     td.Finish(nil),
		"repeat":  td.Finish(r),
		"foreign": other.Finish(r),
	} {
		if evs != nil {
			t.Fatalf("Finish of a %s round returned %v", name, evs)
		}
	}
	if stateJSON(t, td) != before || stateJSON(t, other) != otherBefore {
		t.Fatal("a rejected Finish changed TDE state")
	}
}
