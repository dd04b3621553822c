package experiments_test

import (
	"bytes"
	"testing"

	"resex/internal/experiments"
	"resex/internal/invariant"
	"resex/internal/sim"
	"resex/internal/snapshot"
)

// TestWatchIsPure runs a testbed rig (fig7), a Sched rig (abl-shardsched)
// and a workload rig (abl-workload-mix) plain and under a 5 ms watch plan,
// the hook resextop renders through. Text and CSV must be byte-identical.
// An audited pair of the same runs must count the same executed events (a
// watch that scheduled anything would add some; the text alone can miss
// that), and the watch must fire on every engine the driver builds, which
// the auditor counts by attaching once per engine.
func TestWatchIsPure(t *testing.T) {
	for _, id := range []string{"fig7", "abl-shardsched", "abl-workload-mix"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := experiments.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			run := func(plan *snapshot.Plan, col *invariant.Collector) (string, string) {
				res, err := e.Run(experiments.Options{
					Duration: 40 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Seed: 3,
					Checkpoint: plan, Audit: col,
				})
				if err != nil {
					t.Fatal(err)
				}
				var txt, csv bytes.Buffer
				if err := res.WriteText(&txt); err != nil {
					t.Fatal(err)
				}
				if err := res.WriteCSV(&csv); err != nil {
					t.Fatal(err)
				}
				return txt.String(), csv.String()
			}
			fired := map[snapshot.Key]int{}
			watch := func() *snapshot.Plan {
				return snapshot.NewWatch(5*sim.Millisecond, func(k snapshot.Key, _ *sim.Engine, _ *snapshot.Source) {
					fired[k]++
				})
			}
			plainTxt, plainCSV := run(nil, nil)
			watchTxt, watchCSV := run(watch(), nil)
			if watchTxt != plainTxt {
				t.Errorf("watched text differs:\n--- plain\n%s--- watched\n%s", plainTxt, watchTxt)
			}
			if watchCSV != plainCSV {
				t.Errorf("watched CSV differs:\n--- plain\n%s--- watched\n%s", plainCSV, watchCSV)
			}
			plainCol := invariant.NewCollector(invariant.Audit)
			run(nil, plainCol)
			watchCol := invariant.NewCollector(invariant.Audit)
			run(watch(), watchCol)
			p, w := plainCol.Report(), watchCol.Report()
			if w.Events != p.Events || w.Engines != p.Engines {
				t.Errorf("watched run audited %d events on %d engines, plain %d on %d", w.Events, w.Engines, p.Events, p.Engines)
			}
			if len(fired) != p.Engines {
				t.Errorf("watch fired on %d engines, the driver builds %d", len(fired), p.Engines)
			}
		})
	}
}
