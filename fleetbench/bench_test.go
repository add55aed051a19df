package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	simload "autodbaas/internal/workload"
)

// spec is the part of BENCHMARK.json the result line must match.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c spec
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

// runTiny runs one workload at smoke-test size and returns the summary
// and result lines.
func runTiny(t *testing.T, wl, trace string) (summary map[string]any, res resultLine) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"-workload", wl, "-seed", "7", "-seconds", "0", "-trace", trace, "-tiny", "-out", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", wl, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s trace=%s: want a summary and a result line, got %q", wl, trace, out.String())
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &summary); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return summary, res
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and checks that each listed metric is printed with its
// unit and that the output checks ran and passed.
func TestSmoke(t *testing.T) {
	c := loadSpec(t)
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics: %+v", c)
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, kind := range []struct {
				trace string
				want  []struct {
					Name string `json:"name"`
					Unit string `json:"unit"`
				}
			}{{"0", c.EndToEnd}, {"1", c.PerLayer}} {
				summary, res := runTiny(t, w.Name, kind.trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("trace=%s: correct=%v attempted=%d failed=%d", kind.trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(kind.want) {
					t.Errorf("trace=%s: %d metrics printed, BENCHMARK.json lists %d", kind.trace, len(res.Metrics), len(kind.want))
				}
				for _, m := range kind.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("trace=%s: metric %s missing", kind.trace, m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("trace=%s: metric %s unit %q, BENCHMARK.json says %q", kind.trace, m.Name, got.Unit, m.Unit)
					}
				}
				checks, _ := summary["checks"].([]any)
				if len(checks) == 0 {
					t.Errorf("trace=%s: no output checks ran", kind.trace)
				}
				host, _ := summary["host"].(map[string]any)
				for _, k := range []string{"gomaxprocs", "nproc", "cpu_model", "go_version", "git_commit", "seed", "workload", "run_kind"} {
					if _, ok := host[k]; !ok {
						t.Errorf("trace=%s: host record lacks %s", kind.trace, k)
					}
				}
			}
		})
	}
}

// TestFailedCheckPrintsNoResult checks that a failed output check fails
// the command and withholds the result line.
func TestFailedCheckPrintsNoResult(t *testing.T) {
	var out bytes.Buffer
	checks := []check{{Name: "ok", OK: true}, {Name: "broken", OK: false, Detail: "want x, got y"}}
	err := emit(&out, map[string]any{"checks": checks}, checks, 1, 0, map[string]metric{"setup_s": {1, "s"}})
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("emit with a failed check: err = %v, want the check named", err)
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a result line was printed despite the failed check:\n%s", out.String())
	}
}

// TestSeedDrivesInputs checks that the fingerprint repeats for a seed
// and differs for another.
func TestSeedDrivesInputs(t *testing.T) {
	wl := workloads(tinySize)["churn-sharded"]
	fp := func(seed int64) string {
		res, err := runPass(wl, seed, t.TempDir(), nil, passOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Det.Fingerprint
	}
	a, b, c := fp(3), fp(3), fp(4)
	if a != b {
		t.Errorf("seed 3 gave fingerprints %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same fingerprint %s", a)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "window", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "step", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "shard.Step", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "shard.Step", Start: 30, End: 80},
	}
	got := map[string]float64{}
	for _, r := range selfTimes(spans, 100) {
		got[r.Layer] = r.SelfMs * 1e6
	}
	// step covers 80ns; its overlapping children cover 20..80 = 60ns.
	want := map[string]float64{"window": 20, "step": 20, "shard.Step": 90}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v ns, want %v", k, got[k], v)
		}
	}
}

// TestStormShapes checks that tuning-storm replays the campaign's
// drift and spike terms, moved later as a whole by the stagger.
func TestStormShapes(t *testing.T) {
	shapes, err := stormShapes()
	if err != nil {
		t.Fatal(err)
	}
	for bp, s := range shapes {
		kinds := map[string]bool{}
		for _, term := range s.Terms {
			kinds[term.Kind] = true
		}
		if !kinds[simload.TermDrift] || !kinds[simload.TermSpike] {
			t.Errorf("%s: campaign shape %+v lacks a drift or a spike", bp, s)
		}
		const by = 600
		moved := shifted(s, by)
		if err := moved.Validate(); err != nil {
			t.Errorf("%s: shifted shape invalid: %v", bp, err)
		}
		if stormy(moved, 0, by) {
			t.Errorf("%s: stormy before the shifted terms start", bp)
		}
		for i, term := range moved.Terms {
			orig := s.Terms[i]
			for m := 0; m < 3*24*60; m += 15 {
				if got, want := (simload.Shape{Terms: []simload.Term{term}}).FactorAt(simload.SimEpoch.Add(time.Duration(m+by)*time.Minute)),
					(simload.Shape{Terms: []simload.Term{orig}}).FactorAt(simload.SimEpoch.Add(time.Duration(m)*time.Minute)); got != want {
					t.Fatalf("%s: %s term at minute %d: shifted factor %v, original %v", bp, term.Kind, m, got, want)
				}
			}
			if term.Kind == simload.TermSpike && !stormy(moved, term.AtMin, term.AtMin+1) {
				t.Errorf("%s: stormy misses the shifted spike at minute %d", bp, term.AtMin)
			}
		}
	}
}

// TestFastestWalls checks that the end-to-end window times take, window
// by window, the fastest pass.
func TestFastestWalls(t *testing.T) {
	pass := func(walls ...float64) *passResult {
		p := &passResult{}
		for _, w := range walls {
			p.Windows = append(p.Windows, windowRec{WallMs: w, Instances: 2})
		}
		return p
	}
	passes := []*passResult{pass(10, 50, 30), pass(20, 40, 35), pass(15, 60, 25)}
	got := fastestWalls(passes)
	want := []float64{10, 40, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fastestWalls = %v, want %v", got, want)
		}
	}
	e2e := endToEnd(passes)
	if v := e2e["window_ms_p50"].Value; v != 25 {
		t.Errorf("window_ms_p50 = %v, want 25", v)
	}
	if v := e2e["instance_windows_per_s"].Value; v != 6/0.075 {
		t.Errorf("instance_windows_per_s = %v, want %v", v, 6/0.075)
	}
}

// TestUnevenSplit checks that churn-sharded rebalances the blueprint
// split most unevenly, from the shard holding more of it.
func TestUnevenSplit(t *testing.T) {
	split := map[string]map[string]int{
		"pg-oltp-small": {"s0": 10, "s1": 9},
		"pg-web":        {"s0": 7, "s1": 11},
		"pg-production": {"s0": 10, "s1": 10},
	}
	if bp, from, to := unevenSplit(split); bp != "pg-web" || from != "s1" || to != "s0" {
		t.Errorf("unevenSplit = %s %s→%s, want pg-web s1→s0", bp, from, to)
	}
	split["pg-web"] = map[string]int{"s0": 9, "s1": 9}
	if bp, from, to := unevenSplit(split); bp != "pg-oltp-small" || from != "s0" || to != "s1" {
		t.Errorf("unevenSplit = %s %s→%s, want pg-oltp-small s0→s1", bp, from, to)
	}
}
