package invariant

import (
	"reflect"
	"testing"

	"resex/internal/sim"
	"resex/internal/xen"
)

// runAudited watches a contended two-guest hypervisor run and returns the
// auditor's accumulator export and the collector's merged report at 50ms.
func runAudited(t *testing.T, midCheckpoint bool) (AuditorState, Report) {
	t.Helper()
	eng := sim.New()
	col := NewCollector(Audit)
	a := New(eng, col)
	hv := xen.New(eng, xen.Config{})
	a.WatchXen(hv)
	d1 := hv.CreateDomain("g1", 16<<20, 0)
	d2 := hv.CreateDomain("g2", 16<<20, 0)
	v1 := d1.AddVCPU(hv.PCPU(1))
	v2 := d2.AddVCPU(hv.PCPU(1))
	d2.SetCap(30)
	eng.Go("app1", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			v1.Use(p, 2*sim.Millisecond)
			p.Sleep(sim.Millisecond)
		}
	})
	eng.Go("app2", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			v2.Use(p, 3*sim.Millisecond)
		}
	})
	if midCheckpoint {
		eng.Breakpoint(22*sim.Millisecond, func() {
			_ = a.Checkpoint()
		})
	}
	eng.RunUntil(50 * sim.Millisecond)
	ast := a.Checkpoint()
	a.Close()
	return ast, col.Report()
}

// TestCheckpointEquality: identical audited runs export identical sample
// cursors and tallies, and mid-run exports do not perturb the audit.
func TestCheckpointEquality(t *testing.T) {
	a1, c1 := runAudited(t, false)
	a2, c2 := runAudited(t, false)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same-run exports differ:\nauditor %+v vs %+v\ncollector %+v vs %+v", a1, a2, c1, c2)
	}
	a3, c3 := runAudited(t, true)
	if !reflect.DeepEqual(a1, a3) || !reflect.DeepEqual(c1, c3) {
		t.Fatal("mid-run Checkpoint perturbed the audit")
	}
	if a1.Checks == 0 || a1.Events == 0 {
		t.Fatalf("auditor never sampled: %+v", a1)
	}
	if c1.Total != 0 {
		t.Fatalf("clean run reported %d violations", c1.Total)
	}
}
