// Command fleetbench is the fleet benchmark: it drives the AutoDBaaS
// fleet control plane the way `autodbaas -serve` does — one client
// goroutine in a closed loop, flat out — and measures it from outside.
//
//	fleetbench -workload steady-fleet -seed 1 -seconds 10 -trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) repeats the run with spans recorded at every
// benchmark-side boundary and prints the per-layer ledger. The last
// line of standard output is one JSON object; result files (summary
// JSON, per-window timeline CSV, spans) go under -out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostRecord identifies what produced a result.
type hostRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	RunKind    string `json:"run_kind"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Started    string `json:"started"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: steady-fleet, tuning-storm or churn-sharded")
	seed := fs.Int64("seed", 1, "workload seed: every input the program receives derives from it")
	seconds := fs.Float64("seconds", 10, "measured wall seconds (at least the workload's deterministic prefix runs)")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build/fleetbench-out", "directory for result files")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz := fullSize
	if *tiny {
		sz = tinySize
	}
	wl, ok := workloads(sz)[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want steady-fleet, tuning-storm or churn-sharded)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	host := hostInfo(wl.name, *seed, *trace == 1)
	stem := filepath.Join(*out, fmt.Sprintf("%s-seed%d-%s", wl.name, *seed, host.RunKind))
	workDir := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(workDir)

	if *trace == 0 {
		return untraced(stdout, wl, *seed, *seconds, host, stem, workDir)
	}
	return traced(stdout, wl, *seed, *seconds, host, stem, workDir)
}

// untraced makes the workload's passes, and more until their measured
// phases add up to seconds, measures the end-to-end metrics on them and
// runs the output checks. Every pass of a seed does the same work, so
// the passes must agree on the fingerprint and the counts. The
// checkpoint restore is checked on the first pass.
func untraced(stdout io.Writer, wl *workload, seed int64, seconds float64, host hostRecord, stem, workDir string) error {
	var passes []*passResult
	var measured float64
	for k := 0; k < wl.passes || measured < seconds; k++ {
		runtime.GC()
		p, err := runPass(wl, seed, filepath.Join(workDir, fmt.Sprintf("pass%d", k)), nil, passOpts{restore: k == 0 && wl.checkpointEvery > 0})
		if err != nil {
			return err
		}
		passes = append(passes, p)
		measured += float64(p.WallNs) / 1e9
	}
	first := passes[0]
	e2e := endToEnd(passes)
	var stepErrs, attempted, failed int
	var setups, steal []float64
	walls := make([][]windowRec, len(passes))
	agree := check{Name: "every pass reaches the same fingerprint and deterministic counts", OK: true}
	for k, p := range passes {
		stepErrs += p.StepErrs
		attempted += p.Attempted
		failed += p.Failed
		setups = append(setups, p.SetupS)
		steal = append(steal, p.StealShare)
		walls[k] = p.Windows
		if agree.OK && !p.Det.matches(first.Det) {
			agree.OK = false
			agree.Detail = fmt.Sprintf("pass 0 %+v, pass %d %+v", first.Det, k, p.Det)
		}
	}
	checks := append(outputChecks(wl, stepErrs, first.Restore), agree)
	summary := map[string]any{
		"host":             host,
		"end_to_end":       e2e,
		"passes":           len(passes),
		"setup_s_all":      setups,
		"storm_share":      stormShare(first.Windows),
		"host_steal_share": steal,
		"deterministic":    first.Det,
		"restore":          first.Restore,
		"checks":           checks,
		"attempted":        attempted,
		"failed":           failed,
		// Printed, not gated: see the README's note on spreads.
		"window_tail": windowTail(fastestWalls(passes)),
	}
	if err := writeJSON(stem+".json", summary); err != nil {
		return err
	}
	if err := writeTimeline(stem+".csv", walls); err != nil {
		return err
	}
	return emit(stdout, summary, checks, attempted, failed, e2e)
}

// traced repeats the deterministic prefix untraced as the reference,
// then runs the traced pass, checks the two agree and prints the
// per-layer ledger.
func traced(stdout io.Writer, wl *workload, seed int64, seconds float64, host hostRecord, stem, workDir string) error {
	ref, err := runPass(wl, seed, filepath.Join(workDir, "ref"), nil, passOpts{})
	if err != nil {
		return err
	}
	tr := newTracer(fmt.Sprintf("%s-%d-%d", wl.name, seed, time.Now().UnixNano()))
	res, err := runPass(wl, seed, filepath.Join(workDir, "traced"), tr, passOpts{seconds: seconds, restore: wl.checkpointEvery > 0})
	if err != nil {
		return err
	}
	checks := outputChecks(wl, res.StepErrs, res.Restore)
	checks = append(checks, check{
		Name:   "traced run matches untraced run (fingerprint and deterministic counts)",
		OK:     res.Det.matches(ref.Det),
		Detail: fmt.Sprintf("untraced %+v, traced %+v", ref.Det, res.Det),
	})
	layers := perLayer(wl, res)
	self := selfTimes(res.Spans, res.WallNs)
	overhead := ratio(median(windowWalls(res.Windows[:wl.detWindows])), median(windowWalls(ref.Windows))) - 1
	summary := map[string]any{
		"host":             host,
		"per_layer":        layers,
		"self_time":        self,
		"dominant":         dominance(wl, layers, res.Spans, res.WallNs),
		"tracing_overhead": overhead,
		"deterministic":    res.Det,
		"restore":          res.Restore,
		"checks":           checks,
		"attempted":        res.Attempted,
		"failed":           res.Failed,
	}
	fmt.Fprintf(os.Stderr, "fleetbench: tracing overhead on median window time: %+.1f%%\n", overhead*100)
	if err := writeJSON(stem+".json", summary); err != nil {
		return err
	}
	if err := writeTimeline(stem+".csv", [][]windowRec{res.Windows}); err != nil {
		return err
	}
	if err := writeSpans(stem+"-spans.jsonl", res.Spans); err != nil {
		return err
	}
	obsByWindow := make([]map[string]any, len(res.Windows))
	for i, w := range res.Windows {
		obsByWindow[i] = map[string]any{"window": w.Window, "obs": w.Obs}
	}
	if err := writeJSON(stem+"-obs.json", obsByWindow); err != nil {
		return err
	}
	return emit(stdout, summary, checks, res.Attempted, res.Failed, layers)
}

// check is one output check; a failed check fails the command.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func outputChecks(wl *workload, stepErrs int, restore *restoreCheck) []check {
	out := []check{{
		Name:   "no step errors",
		OK:     stepErrs == 0,
		Detail: fmt.Sprintf("%d instance-window errors", stepErrs),
	}}
	if wl.checkpointEvery > 0 {
		c := check{Name: "last checkpoint restores into a fresh service with the same fingerprint"}
		if restore == nil {
			c.Detail = "no checkpoint was taken"
		} else {
			c.OK = restore.ok()
			c.Detail = fmt.Sprintf("window %d: want %s, got %s %s", restore.Window, restore.Want, restore.Got, restore.Err)
		}
		out = append(out, c)
	}
	return out
}

// emit prints the summary line and, when every check passed, the
// result line. A failed check prints no result and fails the command.
func emit(stdout io.Writer, summary map[string]any, checks []check, attempted, failed int, metrics map[string]metric) error {
	raw, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(raw))
	for _, c := range checks {
		if !c.OK {
			return fmt.Errorf("output check failed: %s: %s", c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(resultLine{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func hostInfo(wl string, seed int64, traced bool) hostRecord {
	h := hostRecord{
		Workload:   wl,
		Seed:       seed,
		RunKind:    "untraced",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if traced {
		h.RunKind = "traced"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The build stamps the commit when it runs inside a git work tree.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func windowWalls(ws []windowRec) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.WallMs
	}
	return out
}

// tail is the highest percentile of window wall time with at least
// ten windows beyond it, with the percentile and sample count.
type tail struct {
	Ms         float64 `json:"ms"`
	Percentile float64 `json:"percentile"`
	Windows    int     `json:"windows"`
}

func windowTail(walls []float64) tail {
	s := append([]float64(nil), walls...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	// A short run has few windows beyond any high percentile; the tail
	// is then held at the median (upper median for even counts) rather
	// than reported below it.
	i := max(n-11, n/2)
	return tail{Ms: s[i], Percentile: 100 * float64(i+1) / float64(n), Windows: n}
}
