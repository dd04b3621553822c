// Strict-mode audit sweep: every registered experiment, at two seeds, runs
// with a fail-fast auditor attached. Any conservation or causality breach
// anywhere in the stack panics with the exact predicate and virtual time,
// reproducible from the seed. External test package: experiments imports
// invariant, so the sweep must live outside the package proper.
package invariant_test

import (
	"fmt"
	"testing"

	"resex/internal/experiments"
	"resex/internal/invariant"
	"resex/internal/sim"
)

// runStrict runs one experiment under a Strict collector, converting the
// fail-fast panic into a test failure with its context.
func runStrict(t *testing.T, id string, seed int64, d, w sim.Time) invariant.Report {
	t.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		t.Fatalf("lookup %s: %v", id, err)
	}
	col := invariant.NewCollector(invariant.Strict)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s seed %d: %v", id, seed, r)
		}
	}()
	if _, err := e.Run(experiments.Options{
		Duration: d,
		Warmup:   w,
		Seed:     seed,
		Parallel: 1, // keep Strict panics on this goroutine
		Audit:    col,
	}); err != nil {
		t.Fatalf("%s seed %d: %v", id, seed, err)
	}
	return col.Report()
}

// strictCovered lists the drivers the Strict sweep leaves out. Each has a
// fixed minimum warm-up or arrival schedule that makes even a 10 ms run
// cost seconds, and the experiments package's resume sweep already runs it
// at the same seeds under an Audit collector, which evaluates the same
// predicates (Strict only panics on the first breach) and asserts engines,
// events and zero violations.
var strictCovered = map[string]bool{
	"abl-faults": true, "abl-fungible": true, "abl-mixedcrit": true, "abl-placement": true,
}

// TestStrictSweepAllExperiments checks that every registered driver outside
// strictCovered runs under a Strict collector, at two seeds, without a
// violation panic. The runs are short: the full-length zero-violation check
// is the audited runs of the experiments package's resume sweep.
func TestStrictSweepAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	seeds := []int64{3, 11}
	dur, warm := 10*sim.Millisecond, 5*sim.Millisecond
	for _, id := range experiments.IDs() {
		if strictCovered[id] {
			continue
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", id, seed), func(t *testing.T) {
				t.Parallel()
				r := runStrict(t, id, seed, dur, warm)
				if r.Engines == 0 {
					t.Fatalf("%s: no auditor attached — driver lost its audit wiring", id)
				}
				if r.Events == 0 {
					t.Fatalf("%s: auditor observed no events", id)
				}
				if r.Total != 0 {
					t.Fatalf("%s: %d violations reached the report in Strict mode", id, r.Total)
				}
			})
		}
	}
}
