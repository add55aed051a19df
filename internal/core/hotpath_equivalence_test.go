package core

import (
	"reflect"
	"testing"

	"autodbaas/internal/faults"
	"autodbaas/internal/tuner/bo"
)

// TestHotPathCachesAreTransparent pins the one hot-path cache left in
// the fleet, the BO tuner's incremental GPR refits: with it disabled,
// the fleet produces exactly the same fingerprint as with it enabled —
// at every parallelism level, both clean and under the medium chaos
// profile. A single diverging float anywhere in two simulated hours of
// a six-instance fleet would show up here.
func TestHotPathCachesAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	run := func(cached bool, par int, withFaults bool) (fleetFingerprint, map[string]int64) {
		prev := bo.SetIncrementalFit(cached)
		defer bo.SetIncrementalFit(prev)
		var in *faults.Injector
		if withFaults {
			in = faults.New(99, faults.Medium())
		}
		fp := runFleetWith(t, par, in)
		if in != nil {
			return fp, in.Counts()
		}
		return fp, nil
	}

	for _, tc := range []struct {
		name       string
		par        int
		withFaults bool
	}{
		{"par=1/clean", 1, false},
		{"par=4/clean", 4, false},
		{"par=16/clean", 16, false},
		{"par=4/faults", 4, true},
		{"par=16/faults", 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on, onCounts := run(true, tc.par, tc.withFaults)
			off, offCounts := run(false, tc.par, tc.withFaults)
			if !reflect.DeepEqual(on, off) {
				t.Errorf("incremental fit changed the simulation:\n  on:  %+v\n  off: %+v", on, off)
			}
			if !reflect.DeepEqual(onCounts, offCounts) {
				t.Errorf("incremental fit changed injected faults:\n  on:  %v\n  off: %v", onCounts, offCounts)
			}
		})
	}
}
