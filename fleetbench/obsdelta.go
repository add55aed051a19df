package main

import (
	"sort"
	"strings"

	"autodbaas/internal/obs"
)

// obsPoint is a flat reading of the process registry: every counter and
// gauge by name (summed over label values) and by name{key=value}, and
// every histogram's _sum (seconds) and _count. Shard servers run in
// this process, so their instruments land in the same registry.
type obsPoint map[string]float64

func readObs() obsPoint {
	p := make(obsPoint)
	for _, m := range obs.Default().Snapshot() {
		if m.Kind == "histogram" {
			p[m.Name+"_sum"] += m.Sum
			p[m.Name+"_count"] += float64(m.Count)
			continue
		}
		p[m.Name] += m.Value
		for _, k := range sortedKeys(m.Labels) {
			p[m.Name+"{"+k+"="+m.Labels[k]+"}"] += m.Value
		}
	}
	return p
}

// delta returns p − base for every key of p. Gauges are kept at p's
// value (a level, not a flow).
func (p obsPoint) delta(base obsPoint) obsPoint {
	d := make(obsPoint, len(p))
	for k, v := range p {
		if isGauge(k) {
			d[k] = v
			continue
		}
		d[k] = v - base[k]
	}
	return d
}

// add accumulates o into p.
func (p obsPoint) add(o obsPoint) {
	for k, v := range o {
		p[k] += v
	}
}

// gauges are the level instruments the ledger reads; the others it
// reads are monotone counters or histogram totals.
var gauges = map[string]bool{
	"autodbaas_core_fleet_worker_utilization": true,
}

func isGauge(key string) bool {
	name, _, _ := strings.Cut(key, "{")
	return gauges[name]
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ms converts a histogram _sum delta (seconds) to milliseconds.
func (p obsPoint) ms(hist string) float64 { return p[hist+"_sum"] * 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
