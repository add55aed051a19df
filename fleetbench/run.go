package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/tenant"
	simload "autodbaas/internal/workload"
)

// fleetRun is one service under test plus the bookkeeping the client
// keeps about it. A single client goroutine uses it, in a closed loop.
type fleetRun struct {
	wl   *workload
	rng  *rand.Rand
	svc  *fleet.Service
	farm *shardFarm // sharded workloads only
	tr   *tracer    // nil when untraced
	dir  string     // working directory: checkpoints, sockets

	engineSeed int64
	// shapes are the declared databases' load shapes (nil: flat load).
	shapes []*simload.Shape

	// Per-window API accounting by verb, reset by the client each
	// window.
	apiNs     map[string]int64
	apiCalls  map[string]int
	apiFailed int
}

// newFleetRun builds the workload's service for a seed; with declare
// it also declares the initial fleet. Inputs come from an rng on the
// seed; engine seeds from a hash of it, so an empty service built for
// a restore has the same engines and shard map.
func newFleetRun(wl *workload, seed int64, dir string, tr *tracer, declare bool) (*fleetRun, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "engine#%d", seed)
	r := &fleetRun{wl: wl, rng: rand.New(rand.NewSource(seed)), tr: tr, dir: dir, engineSeed: int64(h.Sum64() >> 1),
		apiNs: map[string]int64{}, apiCalls: map[string]int{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	err := wl.newService(r)
	if err == nil && declare {
		err = wl.declare(r)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s: build: %w", wl.name, err)
	}
	return r, nil
}

// close releases the service, then the shard servers behind it.
func (r *fleetRun) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	if r.farm != nil {
		r.farm.stop()
	}
	_ = os.RemoveAll(r.dir)
}

// api makes one tenant API call, timed and counted; a failed call is
// counted, not fatal.
func (r *fleetRun) api(verb string, fn func() error) {
	sp := r.tr.start("api." + verb)
	start := time.Now()
	err := fn()
	r.apiNs[verb] += int64(time.Since(start))
	sp.end()
	r.apiCalls[verb]++
	if err != nil {
		r.apiFailed++
		fmt.Fprintf(os.Stderr, "fleetbench: %s: %v\n", verb, err)
	}
}

// allTuned reports whether every declared database is Tuned.
func (r *fleetRun) allTuned() bool {
	for _, t := range r.svc.ListTenants() {
		for _, db := range t.Databases {
			if db.Phase != tenant.Tuned.String() {
				return false
			}
		}
	}
	return true
}

// setUp steps a freshly declared fleet until every database is Tuned,
// then one window more so caches and tuner histories are warm.
func (r *fleetRun) setUp() error {
	for i := 0; ; i++ {
		if i > 20 {
			return fmt.Errorf("%s: fleet not tuned after %d set-up windows", r.wl.name, i)
		}
		if _, err := r.svc.Step(r.wl.window); err != nil {
			return fmt.Errorf("%s: set-up step: %w", r.wl.name, err)
		}
		if r.allTuned() {
			break
		}
	}
	_, err := r.svc.Step(r.wl.window)
	return err
}

// fingerprint hashes the fleet fingerprint (FNV-64a over its JSON).
func (r *fleetRun) fingerprint() (string, error) {
	fp, err := r.svc.Fingerprint()
	if err != nil {
		return "", err
	}
	raw, err := json.Marshal(fp)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// windowRec is one measured window of the timeline.
type windowRec struct {
	Window     int     // service window index after the step
	WallMs     float64 // API calls + Step + checkpoint
	StepMs     float64
	Instances  int
	Stormy     int // declared databases under a drift ramp or a spike
	Throttles  int
	SLOViol    int
	InstErrors int
	APICalls   map[string]int
	APIFailed  int
	APINs      map[string]int64
	CkptMs     float64 // 0 when no checkpoint was due
	CkptBytes  int64
	CkptFailed bool
	RPCIn      int64
	RPCOut     int64
	ShardNs    map[string]int64
	Obs        obsPoint
}

// apiCalls is the number of API calls the window made.
func (w windowRec) apiCalls() int {
	n := 0
	for _, c := range w.APICalls {
		n += c
	}
	return n
}

// detOutputs are the outputs that must repeat exactly for a seed,
// taken after the deterministic prefix of the measured phase.
type detOutputs struct {
	Fingerprint   string  `json:"fingerprint"`
	Throttles     int     `json:"throttles"`
	SLOViolations int     `json:"slo_violations"`
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	FailedShare   float64 `json:"failed_op_share"`
	CheckpointB   int64   `json:"checkpoint_bytes"`
}

// passResult is everything one pass measured.
type passResult struct {
	SetupS   float64
	Windows  []windowRec
	Det      detOutputs
	WallNs   int64 // sum of measured window wall times
	HeapMB   float64
	Mem0     runtime.MemStats
	Mem1     runtime.MemStats
	Restore  *restoreCheck
	Spans    []spanRec
	StepErrs int
	// StealShare is the share of CPU time the hypervisor took from this
	// machine during the measured phase (0 where /proc/stat has none).
	StealShare float64
	// Attempted and Failed count every operation of the pass.
	Attempted, Failed int
}

// restoreCheck is the churn-sharded output check: the last checkpoint
// restored into a freshly built service has the fingerprint the fleet
// had when the checkpoint was taken.
type restoreCheck struct {
	Window    int     `json:"window"`
	Want      string  `json:"want"`
	Got       string  `json:"got"`
	RestoreMs float64 `json:"restore_ms"`
	Err       string  `json:"error,omitempty"`
}

func (c *restoreCheck) ok() bool { return c.Err == "" && c.Want == c.Got }

// ckptSlackBytes is how far two checkpoints of one seed may differ in
// size. The orchestrator section holds service passwords drawn from
// crypto/rand; they change the section CRCs, which the manifest writes
// as decimal numbers of varying width.
const ckptSlackBytes = 64

// matches reports whether two runs of one seed agree: exactly on the
// fingerprint and counts, within ckptSlackBytes on checkpoint size.
func (d detOutputs) matches(o detOutputs) bool {
	diff := d.CheckpointB - o.CheckpointB
	d.CheckpointB, o.CheckpointB = 0, 0
	return d == o && diff <= ckptSlackBytes && -diff <= ckptSlackBytes
}

// passOpts selects what one pass does.
type passOpts struct {
	seconds float64 // 0: stop after the fixed measured phase
	restore bool    // run the restore check (workloads with checkpoints)
}

// runPass sets the workload up, then drives it window by window in a
// closed loop: API calls due in the window, Step, checkpoint if due.
func runPass(wl *workload, seed int64, dir string, tr *tracer, o passOpts) (*passResult, error) {
	res := &passResult{}
	start := time.Now()
	r, err := newFleetRun(wl, seed, filepath.Join(dir, "fleet"), tr, true)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	res.SetupS = time.Since(start).Seconds()
	tr.reset()

	prev := readObs()
	var prevIn, prevOut int64
	var prevShard map[string]int64
	if r.farm != nil {
		prevIn, prevOut = r.farm.in.Load(), r.farm.out.Load()
		prevShard = r.farm.stats.snapshot()
	}
	runtime.ReadMemStats(&res.Mem0)
	steal0, total0 := cpuTicks()
	var lastCkpt string
	var lastCkptFP string
	lastCkptWindow := 0
	begin := time.Now()
	for m := 0; ; m++ {
		if m >= wl.detWindows && time.Since(begin).Seconds() >= o.seconds {
			break
		}
		w := r.svc.Windows()
		tr.setWindow(w + 1)
		r.apiCalls, r.apiFailed, r.apiNs = map[string]int{}, 0, map[string]int64{}
		rec := windowRec{}
		t0 := time.Now()
		wsp := tr.start("window")
		if wl.drive != nil {
			wl.drive(r, w)
		}
		ssp := tr.start("step")
		s0 := time.Now()
		step, err := r.svc.Step(wl.window)
		rec.StepMs = msSince(s0)
		ssp.end()
		if err != nil {
			wsp.end()
			return nil, fmt.Errorf("%s: window %d: step: %w", wl.name, w+1, err)
		}
		rec.Window = r.svc.Windows()
		if wl.checkpointEvery > 0 && rec.Window%wl.checkpointEvery == 0 {
			csp := tr.start("checkpoint")
			c0 := time.Now()
			path, err := r.svc.CheckpointNow(filepath.Join(r.dir, "ckpt"))
			rec.CkptMs = msSince(c0)
			csp.end()
			if err != nil {
				rec.CkptFailed = true
				fmt.Fprintf(os.Stderr, "fleetbench: checkpoint at window %d: %v\n", rec.Window, err)
			} else {
				if st, err := os.Stat(path); err == nil {
					rec.CkptBytes = st.Size()
				}
				// Keep only latest.ckpt: old snapshots are never read.
				_ = os.Remove(path)
				lastCkpt = filepath.Join(filepath.Dir(path), "latest.ckpt")
				lastCkptWindow = rec.Window
			}
		}
		wsp.end()
		rec.WallMs = msSince(t0)

		ids := make(map[string]bool, len(step.P99Ms))
		for id, p99 := range step.P99Ms {
			ids[id] = true
			if p99 > wl.sloP99Ms {
				rec.SLOViol++
			}
		}
		for id, msg := range step.Errors {
			ids[id] = true
			rec.InstErrors++
			if rec.InstErrors == 1 {
				fmt.Fprintf(os.Stderr, "fleetbench: window %d: instance %s: %s\n", rec.Window, id, msg)
			}
		}
		rec.Instances = len(ids)
		winMin := int(wl.window / time.Minute)
		for _, sh := range r.shapes {
			if stormy(sh, (rec.Window-1)*winMin, rec.Window*winMin) {
				rec.Stormy++
			}
		}
		rec.Throttles = step.Throttles
		rec.APICalls, rec.APIFailed, rec.APINs = r.apiCalls, r.apiFailed, r.apiNs

		cur := readObs()
		rec.Obs = cur.delta(prev)
		prev = cur
		if r.farm != nil {
			in, out := r.farm.in.Load(), r.farm.out.Load()
			rec.RPCIn, rec.RPCOut = in-prevIn, out-prevOut
			prevIn, prevOut = in, out
			shardNs := r.farm.stats.snapshot()
			rec.ShardNs = make(map[string]int64, len(shardNs))
			for k, v := range shardNs {
				rec.ShardNs[k] = v - prevShard[k]
			}
			prevShard = shardNs
		}
		res.Windows = append(res.Windows, rec)
		res.WallNs += int64(rec.WallMs * 1e6)

		if lastCkptWindow == rec.Window && o.restore {
			if lastCkptFP, err = r.fingerprint(); err != nil {
				return nil, err
			}
		}
		if m+1 == wl.detWindows {
			if res.Det.Fingerprint, err = r.fingerprint(); err != nil {
				return nil, err
			}
			res.Det.fill(res.Windows)
		}
	}
	runtime.ReadMemStats(&res.Mem1)
	steal1, total1 := cpuTicks()
	res.StealShare = ratio(float64(steal1-steal0), float64(total1-total0))
	res.HeapMB = liveHeapMB()

	var all detOutputs
	all.fill(res.Windows)
	res.Attempted, res.Failed = all.Attempted, all.Failed
	for _, wr := range res.Windows {
		res.StepErrs += wr.InstErrors
	}
	if o.restore && lastCkpt != "" {
		res.Restore = restoreInto(wl, seed, filepath.Join(dir, "restore"), tr, lastCkpt, lastCkptWindow, lastCkptFP)
		res.Attempted++
		if !res.Restore.ok() {
			res.Failed++
		}
	}
	res.Spans = tr.done()
	return res, nil
}

// restoreInto builds a fresh service for the seed, without declaring
// or stepping anything, restores the checkpoint into it and compares
// fingerprints.
func restoreInto(wl *workload, seed int64, dir string, tr *tracer, path string, window int, want string) *restoreCheck {
	c := &restoreCheck{Window: window, Want: want}
	r, err := newFleetRun(wl, seed, dir, tr, false)
	if err != nil {
		c.Err = err.Error()
		return c
	}
	defer r.close()
	sp := tr.start("restore")
	start := time.Now()
	err = r.svc.RestoreFrom(path)
	c.RestoreMs = msSince(start)
	sp.end()
	if err != nil {
		c.Err = err.Error()
		return c
	}
	got, err := r.fingerprint()
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.Got = got
	return c
}

// fill computes the counts and the last checkpoint size of windows.
func (d *detOutputs) fill(ws []windowRec) {
	for _, w := range ws {
		d.Throttles += w.Throttles
		d.SLOViolations += w.SLOViol
		d.Attempted += w.Instances + w.apiCalls()
		d.Failed += w.InstErrors + w.APIFailed
		if w.CkptMs > 0 {
			d.Attempted++
			if w.CkptFailed {
				d.Failed++
			} else {
				d.CheckpointB = w.CkptBytes
			}
		}
	}
	d.FailedShare = ratio(float64(d.Failed), float64(d.Attempted))
}

// liveHeapMB is the heap left after a forced GC: the smaller of two
// GC-and-read rounds, so that memory a background goroutine allocates
// while the first collection ends is not counted as live.
func liveHeapMB() float64 {
	heap := math.Inf(1)
	for i := 0; i < 2; i++ {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = math.Min(heap, float64(ms.HeapAlloc)/(1<<20))
	}
	return heap
}

// cpuTicks reads the machine's steal and total CPU ticks from the first
// line of /proc/stat; both are 0 where it cannot be read.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
