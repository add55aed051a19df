package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// endToEnd computes the gated metrics a user of the fleet service sees,
// from the passes of an untraced run. Window times are the fastest
// pass's, window by window: the passes do the same work, so a slower
// pass measured the host, not the program.
func endToEnd(passes []*passResult) map[string]metric {
	var setups, heaps []float64
	for _, p := range passes {
		setups = append(setups, p.SetupS)
		heaps = append(heaps, p.HeapMB)
	}
	walls := fastestWalls(passes)
	var wallMs float64
	for _, w := range walls {
		wallMs += w
	}
	inst := 0
	for _, w := range passes[0].Windows[:len(walls)] {
		inst += w.Instances
	}
	return map[string]metric{
		"setup_s":                {median(setups), "s"},
		"window_ms_p50":          {median(walls), "ms"},
		"instance_windows_per_s": {ratio(float64(inst), wallMs/1e3), "1/s"},
		"heap_mb":                {median(heaps), "MB"},
	}
}

// fastestWalls is, for each window of the measured phase, the smallest
// wall time any pass took for it.
func fastestWalls(passes []*passResult) []float64 {
	n := len(passes[0].Windows)
	for _, p := range passes {
		n = min(n, len(p.Windows))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Inf(1)
		for _, p := range passes {
			out[i] = math.Min(out[i], p.Windows[i].WallMs)
		}
	}
	return out
}

// stormShare is the share of measured instance-windows, and of measured
// windows, with a database under a drift ramp or a spike.
func stormShare(ws []windowRec) map[string]float64 {
	var inst, stormyInst, stormyWin int
	for _, w := range ws {
		inst += w.Instances
		stormyInst += w.Stormy
		if w.Stormy > 0 {
			stormyWin++
		}
	}
	return map[string]float64{
		"instance_windows": ratio(float64(stormyInst), float64(inst)),
		"windows":          ratio(float64(stormyWin), float64(len(ws))),
	}
}

// Histogram families the ledger reads, as recorded in the registry.
const (
	hReconcile = "autodbaas_fleet_reconcile_seconds"
	hStep      = "autodbaas_core_step_seconds"
	hMerge     = "autodbaas_core_step_merge_seconds"
	hTDE       = "autodbaas_agent_tde_run_seconds"
	hRound     = "autodbaas_director_tuning_round_seconds"
	hRecommend = "autodbaas_tuner_recommend_seconds"
	hGPRFit    = "autodbaas_tuner_gpr_fit_seconds"
	hApply     = "autodbaas_dfa_apply_seconds"
	hRedeploy  = "autodbaas_orchestrator_redeploy_seconds"
)

// perLayer computes the per-layer ledger of a traced pass. Times named
// *_ms are milliseconds spent in the layer per measured window, summed
// over instances and shards (so parallel work can exceed the window's
// wall time); counts are totals over the deterministic prefix, which
// repeat exactly for a seed. fleet.api_us, shard.rebalance_ms,
// checkpoint.ms and checkpoint.restore_ms are per operation.
func perLayer(wl *workload, res *passResult) map[string]metric {
	all, det := obsPoint{}, obsPoint{}
	apiNs, apiCalls := map[string]int64{}, map[string]int{}
	var instWindows int
	var rpcIn, rpcOut int64
	var ckptMs []float64
	shardNs := map[string]int64{}
	for i, w := range res.Windows {
		all.add(w.Obs)
		if i < wl.detWindows {
			det.add(w.Obs)
			rpcIn += w.RPCIn
			rpcOut += w.RPCOut
		}
		for verb, ns := range w.APINs {
			apiNs[verb] += ns
			apiCalls[verb] += w.APICalls[verb]
		}
		instWindows += w.Instances
		if w.CkptMs > 0 {
			ckptMs = append(ckptMs, w.CkptMs)
		}
		for k, v := range w.ShardNs {
			shardNs[k] += v
		}
	}
	n := float64(len(res.Windows))
	perWin := func(hist string) float64 { return all.ms(hist) / n }
	hits := "autodbaas_cache_hits_total{cache=%s}"
	misses := "autodbaas_cache_misses_total{cache=%s}"
	hitRate := func(cache string) float64 {
		h, m := all[fmt.Sprintf(hits, cache)], all[fmt.Sprintf(misses, cache)]
		return ratio(h, h+m)
	}
	step, merge := perWin(hStep), perWin(hMerge)
	refits := all["autodbaas_tuner_gpr_refit_total"]
	incRefits := all["autodbaas_tuner_gpr_refit_total{mode=incremental}"] + all["autodbaas_tuner_gpr_refit_total{mode=sparse-incremental}"]
	up, sup := det["autodbaas_agent_samples_uploaded_total"], det["autodbaas_agent_samples_suppressed_total"]
	vetoes := det["autodbaas_safety_vetoes_total"]
	recs := det["autodbaas_director_recommendations_total"]
	// Rebalances have their own metric; fleet.api_us is every other verb.
	var tenantNs int64
	var tenantCalls int
	for verb, ns := range apiNs {
		if verb != "rebalance" {
			tenantNs += ns
			tenantCalls += apiCalls[verb]
		}
	}
	restoreMs := 0.0
	if res.Restore != nil {
		restoreMs = res.Restore.RestoreMs
	}
	m := map[string]metric{
		"fleet.reconcile_ms": {perWin(hReconcile), "ms"},
		"fleet.api_us":       {ratio(float64(tenantNs)/1e3, float64(tenantCalls)), "us"},
		"fleet.provisions":   {det["autodbaas_fleet_provisions_total"], "count"},
		"fleet.deprovisions": {det["autodbaas_fleet_deprovisions_total"], "count"},
		"fleet.resizes":      {det["autodbaas_fleet_resizes_total"], "count"},

		"core.step_ms":            {step, "ms"},
		"core.merge_ms":           {merge, "ms"},
		"core.merge_share":        {ratio(merge, step), "ratio"},
		"core.worker_utilization": {all["autodbaas_core_fleet_worker_utilization"] / n, "ratio"},
		// Derived: step minus merge. simdb has no public boundary inside
		// Step, so no claim may rest on this number.
		"core.window_phase_ms": {step - merge, "ms"},

		"agent.tde_ms":       {perWin(hTDE), "ms"},
		"agent.tde_ticks":    {det["autodbaas_agent_tde_ticks_total"], "count"},
		"agent.upload_share": {ratio(up, up+sup), "ratio"},

		"sqlparse.template_hit_rate":  {hitRate("sqlparse_template"), "ratio"},
		"sqlparse.template_evictions": {all["autodbaas_cache_evictions_total{cache=sqlparse_template}"] / n, "count"},
		"simdb.plan_hit_rate":         {hitRate("simdb_plan"), "ratio"},

		"director.tuning_round_ms":      {perWin(hRound), "ms"},
		"director.tuning_requests":      {det["autodbaas_director_tuning_requests_total"], "count"},
		"director.recommendations":      {recs, "count"},
		"director.apply_failures":       {det["autodbaas_director_apply_failures_total"], "count"},
		"director.circuit_skips":        {det["autodbaas_director_circuit_skips_total"], "count"},
		"tuner.recommend_ms":            {perWin(hRecommend), "ms"},
		"tuner.gpr_fit_ms":              {perWin(hGPRFit), "ms"},
		"tuner.incremental_refit_share": {ratio(incRefits, refits), "ratio"},

		"safety.canary_runs":        {det["autodbaas_safety_canary_runs_total"], "count"},
		"safety.vetoes":             {vetoes, "count"},
		"safety.rollbacks":          {det["autodbaas_safety_rollbacks_total"], "count"},
		"safety.regressing_applies": {det["autodbaas_safety_regressing_applies_total"], "count"},
		"safety.veto_share":         {ratio(vetoes, vetoes+recs), "ratio"},

		"dfa.apply_ms":   {perWin(hApply), "ms"},
		"dfa.applies":    {det["autodbaas_dfa_applies_total"], "count"},
		"dfa.rejections": {det["autodbaas_dfa_rejections_total"], "count"},

		"orchestrator.redeploy_ms": {perWin(hRedeploy), "ms"},
		"orchestrator.retries":     {det["autodbaas_orchestrator_retries_total"], "count"},
		"orchestrator.escalations": {det["autodbaas_orchestrator_restart_escalations_total"], "count"},

		"repository.delivered_per_batch": {ratio(all["autodbaas_repository_fanout_delivered_total"], all["autodbaas_repository_fanout_batches_total"]), "ratio"},
		"repository.redeliveries":        {det["autodbaas_repository_fanout_redeliveries_total"], "count"},
		"repository.dedup_dropped":       {det["autodbaas_repository_fanout_dedup_dropped_total"], "count"},

		"checkpoint.ms":         {median(ckptMs), "ms"},
		"checkpoint.bytes":      {float64(res.Det.CheckpointB), "B"},
		"checkpoint.restore_ms": {restoreMs, "ms"},

		"shard.rebalance_ms":  {ratio(float64(apiNs["rebalance"])/1e6, float64(apiCalls["rebalance"])), "ms"},
		"shard.rpc_bytes_in":  {float64(rpcIn), "B"},
		"shard.rpc_bytes_out": {float64(rpcOut), "B"},

		"go.alloc_bytes_per_instance_window": {ratio(float64(res.Mem1.TotalAlloc-res.Mem0.TotalAlloc), float64(instWindows)), "B"},
		"go.gc_cycles":                       {float64(res.Mem1.NumGC-res.Mem0.NumGC) / n, "count"},
		"go.gc_pause_ms":                     {float64(res.Mem1.PauseTotalNs-res.Mem0.PauseTotalNs) / 1e6 / n, "ms"},

		"throttles":       {float64(res.Det.Throttles), "count"},
		"slo_violations":  {float64(res.Det.SLOViolations), "count"},
		"failed_op_share": {res.Det.FailedShare, "ratio"},
	}
	for _, meth := range shardMethods {
		m["shard.call_ms."+meth] = metric{float64(shardNs[meth]) / 1e6 / n, "ms"}
	}
	return m
}

// dominantLayer is the traced run's verdict on the layer the workload
// was predicted to spend most of its time in.
type dominantLayer struct {
	Predicted string             `json:"predicted"`
	Of        string             `json:"of"`
	Observed  string             `json:"observed"`
	Shares    map[string]float64 `json:"shares"`
	Confirmed bool               `json:"confirmed"`
}

// dominance compares the leaf layers inside a fleet step on the flat
// workloads, and on churn-sharded the calls a window makes (API calls,
// Step, checkpoint: the direct children of the window spans) as shares
// of measured wall time.
func dominance(wl *workload, layers map[string]metric, spans []spanRec, wallNs int64) dominantLayer {
	d := dominantLayer{Shares: map[string]float64{}}
	switch {
	case wl.checkpointEvery > 0:
		d.Predicted, d.Of = "checkpoint", "wall time"
		windows := map[uint64]bool{}
		for _, s := range spans {
			if s.Name == "window" {
				windows[s.ID] = true
			}
		}
		for _, s := range spans {
			if windows[s.Parent] {
				d.Shares[s.Name] += float64(s.End-s.Start) / float64(wallNs)
			}
		}
	default:
		d.Predicted, d.Of = "agent.tde_ms", "core.step_ms"
		if wl.name == "tuning-storm" {
			d.Predicted = "director.tuning_round_ms"
		}
		step := layers["core.step_ms"].Value
		for _, k := range []string{"agent.tde_ms", "director.tuning_round_ms", "fleet.reconcile_ms", "orchestrator.redeploy_ms", "core.window_phase_ms"} {
			d.Shares[k] = ratio(layers[k].Value, step)
		}
	}
	keys := make([]string, 0, len(d.Shares))
	for k := range d.Shares {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return d.Shares[keys[i]] > d.Shares[keys[j]] })
	if len(keys) > 0 {
		d.Observed = keys[0]
	}
	d.Confirmed = d.Observed == d.Predicted
	return d
}

// timelineCols are the per-window timeline columns after the fixed ones:
// obs deltas, named by the ledger layer they feed.
var timelineCols = []struct{ col, key string }{
	{"reconcile_ms", hReconcile},
	{"core_step_ms", hStep},
	{"merge_ms", hMerge},
	{"tde_ms", hTDE},
	{"tuning_round_ms", hRound},
	{"recommend_ms", hRecommend},
	{"dfa_apply_ms", hApply},
	{"redeploy_ms", hRedeploy},
	{"checkpoint_obs_ms", "autodbaas_checkpoint_duration_seconds"},
}

var timelineCounts = []struct{ col, key string }{
	{"tde_ticks", "autodbaas_agent_tde_ticks_total"},
	{"recommendations", "autodbaas_director_recommendations_total"},
	{"canary_runs", "autodbaas_safety_canary_runs_total"},
	{"vetoes", "autodbaas_safety_vetoes_total"},
	{"provisions", "autodbaas_fleet_provisions_total"},
	{"deprovisions", "autodbaas_fleet_deprovisions_total"},
	{"resizes", "autodbaas_fleet_resizes_total"},
	{"retries", "autodbaas_orchestrator_retries_total"},
	{"template_evictions", "autodbaas_cache_evictions_total{cache=sqlparse_template}"},
}

// writeTimeline writes one CSV row per measured window of each pass, so
// a tail spike can be traced to its pass, window and layer.
func writeTimeline(path string, passes [][]windowRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	head := []string{"pass", "window", "wall_ms", "step_ms", "instances", "stormy", "throttles", "slo_violations", "instance_errors", "api_calls", "api_failed", "checkpoint_ms", "checkpoint_bytes", "rpc_bytes_in", "rpc_bytes_out"}
	for _, c := range timelineCols {
		head = append(head, c.col)
	}
	for _, c := range timelineCounts {
		head = append(head, c.col)
	}
	fmt.Fprintln(w, strings.Join(head, ","))
	for k, ws := range passes {
		for _, r := range ws {
			row := []string{
				fmt.Sprint(k), fmt.Sprint(r.Window), ff(r.WallMs), ff(r.StepMs), fmt.Sprint(r.Instances), fmt.Sprint(r.Stormy), fmt.Sprint(r.Throttles),
				fmt.Sprint(r.SLOViol), fmt.Sprint(r.InstErrors), fmt.Sprint(r.apiCalls()), fmt.Sprint(r.APIFailed),
				ff(r.CkptMs), fmt.Sprint(r.CkptBytes), fmt.Sprint(r.RPCIn), fmt.Sprint(r.RPCOut),
			}
			for _, c := range timelineCols {
				row = append(row, ff(r.Obs.ms(c.key)))
			}
			for _, c := range timelineCounts {
				row = append(row, fmt.Sprint(r.Obs[c.key]))
			}
			fmt.Fprintln(w, strings.Join(row, ","))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ff(v float64) string { return fmt.Sprintf("%.3f", v) }
