package experiments

import (
	"sort"
	"strings"
	"testing"

	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/stats"
)

// quick returns small-scale options: enough virtual time for stable shapes,
// small enough to keep the test suite fast.
func quick() Options {
	return Options{Duration: 250 * sim.Millisecond, Warmup: 50 * sim.Millisecond}
}

func renderBoth(t *testing.T, r Result) (string, string) {
	t.Helper()
	var txt, csv strings.Builder
	if err := r.WriteText(&txt); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if txt.Len() == 0 || csv.Len() == 0 {
		t.Fatal("empty rendering")
	}
	return txt.String(), csv.String()
}

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig1(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Normal: tight around ~233µs. Interfered: shifted and spread.
	if r.NormalStd > 10 {
		t.Errorf("normal std %.1f, want tight distribution", r.NormalStd)
	}
	if r.InterferedMean < r.NormalMean*1.2 {
		t.Errorf("interfered mean %.1f not well above normal %.1f", r.InterferedMean, r.NormalMean)
	}
	if r.InterferedStd < 5*r.NormalStd {
		t.Errorf("interfered std %.1f vs normal %.1f: no spread", r.InterferedStd, r.NormalStd)
	}
	if r.Normal.Count() == 0 || r.Interfered.Count() == 0 {
		t.Error("empty histograms")
	}
	txt, csv := renderBoth(t, r)
	if !strings.Contains(txt, "Normal server") || !strings.Contains(csv, "latency_us") {
		t.Error("rendering content")
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byKey := map[[2]bool]map[int]Fig2Row{}
	for _, row := range r.Rows {
		k := [2]bool{row.Loaded, false}
		if byKey[k] == nil {
			byKey[k] = map[int]Fig2Row{}
		}
		byKey[k][row.Servers] = row
	}
	for _, row := range r.Rows {
		// CTime roughly constant everywhere (~92µs).
		if row.CTime < 85 || row.CTime > 105 {
			t.Errorf("CTime %.1f at n=%d loaded=%v", row.CTime, row.Servers, row.Loaded)
		}
		// Loaded rows dominate their unloaded counterparts in W and P.
		if row.Loaded {
			base := byKey[[2]bool{false, false}][row.Servers]
			if row.WTime <= base.WTime || row.PTime <= base.PTime {
				t.Errorf("n=%d: load did not raise W/P (%.1f/%.1f vs %.1f/%.1f)",
					row.Servers, row.WTime, row.PTime, base.WTime, base.PTime)
			}
		}
	}
	// More collocated servers never *reduces* latency. (Identical closed
	// loops can settle into collision-free anti-phase schedules, so equal
	// totals are legitimate; the paper's unloaded bars also sit within
	// error bars of each other.)
	u := byKey[[2]bool{false, false}]
	if u[3].Total() < u[1].Total()*0.98 {
		t.Errorf("3-server total %.1f below 1-server %.1f", u[3].Total(), u[1].Total())
	}
	renderBoth(t, r)
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper's claim: latency roughly flat across ratios when cap=100/BR.
	lo, hi := r.Rows[0].Total(), r.Rows[0].Total()
	for _, row := range r.Rows {
		tot := row.Total()
		if tot < lo {
			lo = tot
		}
		if tot > hi {
			hi = tot
		}
	}
	if hi > lo*1.35 {
		t.Errorf("ratio-capped latencies spread %.1f–%.1f µs (>35%%), want roughly equal", lo, hi)
	}
	// And all far below the uncapped interference level (~346µs).
	if hi > 310 {
		t.Errorf("capped latency %.1f near uncapped level", hi)
	}
	renderBoth(t, r)
}

func TestFig4Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Monotone non-increasing total latency as the cap tightens (rows are
	// ordered 100..3 then Base), within jitter tolerance.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Total() > r.Rows[i-1].Total()*1.04 {
			t.Errorf("latency rose from cap %d (%.1f) to cap %d (%.1f)",
				r.Rows[i-1].Cap, r.Rows[i-1].Total(), r.Rows[i].Cap, r.Rows[i].Total())
		}
	}
	base := r.Rows[len(r.Rows)-1].Total()
	cap3 := r.Rows[len(r.Rows)-2].Total()
	if cap3 > base*1.1 {
		t.Errorf("cap=3 latency %.1f not near base %.1f (paper: buffer-ratio cap restores base)", cap3, base)
	}
	uncapped := r.Rows[0].Total()
	if uncapped < base*1.3 {
		t.Errorf("uncapped %.1f vs base %.1f: interference too weak", uncapped, base)
	}
	renderBoth(t, r)
}

func TestFig5FreeMarketShape(t *testing.T) {
	t.Parallel()
	r, err := Fig5(Options{Duration: 1200 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// FreeMarket sits between Base and Interfered.
	if r.PolicyMean >= r.IntfMean {
		t.Errorf("FreeMarket %.1f not below interfered %.1f", r.PolicyMean, r.IntfMean)
	}
	if r.PolicyMean <= r.BaseMean {
		t.Errorf("FreeMarket %.1f at/below base %.1f — too good for a latency-blind policy", r.PolicyMean, r.BaseMean)
	}
	// The interferer's cap was engaged at some point (Reso exhaustion).
	if r.IntfCap.YSummary().Min() >= 100 {
		t.Error("FreeMarket never capped the interferer")
	}
	if r.Latency.Len() == 0 || r.IntfResos.Len() == 0 {
		t.Error("missing series")
	}
	renderBoth(t, r)
}

func TestFig6Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig6(Options{Duration: 1200 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.IntfMinFraction > 0.10 {
		t.Errorf("interferer balance bottomed at %.0f%%, never depleted", r.IntfMinFraction*100)
	}
	if !r.IntfCapEngaged {
		t.Error("rated capping never engaged")
	}
	// The 64KB VM keeps a healthy balance and is never capped.
	if r.RepMinFraction < 0.10 {
		t.Errorf("reporting VM balance bottomed at %.0f%%", r.RepMinFraction*100)
	}
	if r.Timeline.RepCap.YSummary().Min() < 100 {
		t.Error("reporting VM was capped")
	}
	renderBoth(t, r)
}

// TestFig5CaptureKeysPerPoint pins the capture keys of the three timeline
// legs: each leg arms its engine under its own point seed, so the keys do
// not depend on which leg reaches Arm first under -parallel.
func TestFig5CaptureKeysPerPoint(t *testing.T) {
	t.Parallel()
	const seed = 11
	o := Options{Duration: 20 * sim.Millisecond, Warmup: 10 * sim.Millisecond, Seed: seed, Parallel: 1}
	o.Checkpoint = snapshot.NewCapture(o.Warmup + o.Duration/2)
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	b, err := o.Checkpoint.Bundle(snapshot.Meta{Kind: "experiment", Experiment: "fig5", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := map[snapshot.Key]bool{}
	for i := 0; i < 3; i++ {
		want[snapshot.Key{PointSeed: DeriveSeed(seed, i), Ordinal: 0}] = true
	}
	var got []snapshot.Key
	for _, s := range b.Snaps {
		got = append(got, s.Key)
	}
	if len(got) != len(want) {
		t.Fatalf("captured keys %+v, want one per leg: %+v", got, want)
	}
	for _, k := range got {
		if !want[k] {
			t.Errorf("captured key %+v, want one of %+v", k, want)
		}
	}
}

// TestFig6CSVColumnOrder renders the same result repeatedly: the header must
// list the series in their declared order every time.
func TestFig6CSVColumnOrder(t *testing.T) {
	t.Parallel()
	series := func() *stats.Series {
		s := stats.NewSeries("")
		s.Add(0, 1)
		return s
	}
	r := &Fig6Result{Timeline: &TimelineResult{
		RepResos: series(), IntfResos: series(), RepCap: series(), IntfCap: series(),
	}}
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if header, _, _ := strings.Cut(b.String(), "\n"); header != "x,rep_resos,intf_resos,rep_cap,intf_cap" {
			t.Fatalf("render %d: header %q", i, header)
		}
	}
}

func TestFig7IOSharesShape(t *testing.T) {
	t.Parallel()
	r, err := Fig7(Options{Duration: 500 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.IntfMean < r.BaseMean*1.3 {
		t.Fatalf("interference too weak: %.1f vs %.1f", r.IntfMean, r.BaseMean)
	}
	// Paper's headline: IOShares achieves near-base latency; at least 30%
	// of the interference is recovered (we typically see >80%).
	rec := (r.IntfMean - r.PolicyMean) / (r.IntfMean - r.BaseMean)
	if rec < 0.3 {
		t.Errorf("IOShares recovered %.0f%% of interference", rec*100)
	}
	// IOShares beats FreeMarket's latency on the same workload.
	fm, err := Fig5(Options{Duration: 500 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.PolicyMean >= fm.PolicyMean {
		t.Errorf("IOShares %.1f not below FreeMarket %.1f", r.PolicyMean, fm.PolicyMean)
	}
	renderBoth(t, r)
}

func TestFig8Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base := r.Rows[0].Mean
	for _, row := range r.Rows[1:] {
		// All non-interference configurations stay near base (paper: the
		// values are almost equal to Base).
		if row.Mean > base*1.25 {
			t.Errorf("%s latency %.1f strays from base %.1f", row.Config, row.Mean, base)
		}
	}
	renderBoth(t, r)
}

func TestFig9Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig9(Options{Duration: 400 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// IOShares tracks base closely at every buffer size...
		if row.IOShares > row.Base*1.30 {
			t.Errorf("%s: IOShares %.1f vs base %.1f", byteSize(row.Buffer), row.IOShares, row.Base)
		}
		// ...and is never meaningfully worse than FreeMarket.
		if row.IOShares > row.FreeMarket*1.1 {
			t.Errorf("%s: IOShares %.1f above FreeMarket %.1f", byteSize(row.Buffer), row.IOShares, row.FreeMarket)
		}
	}
	// For large buffers FreeMarket is clearly above IOShares (the paper's
	// separation).
	last := r.Rows[len(r.Rows)-1]
	if last.FreeMarket < last.IOShares {
		t.Errorf("1MB: FreeMarket %.1f below IOShares %.1f", last.FreeMarket, last.IOShares)
	}
	renderBoth(t, r)
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	ids := IDs()
	if len(ids) != 26 { // 9 figures + 13 ablations + 3 workload studies + softrt
		t.Fatalf("IDs = %v", ids)
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("IDs not sorted: %v", ids)
	}
	for _, id := range ids {
		e, err := Lookup(id)
		if err != nil || e.Run == nil || e.Title == "" {
			t.Errorf("entry %q broken: %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAblArbShape(t *testing.T) {
	t.Parallel()
	r, err := AblArb(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	rr, fifo := r.Rows[0], r.Rows[1]
	if fifo.Mean < 2*rr.Mean {
		t.Errorf("FIFO %.1f not well above RR %.1f", fifo.Mean, rr.Mean)
	}
	if rr.P99 < rr.Mean {
		t.Errorf("p99 %.1f below mean %.1f", rr.P99, rr.Mean)
	}
	renderBoth(t, r)
}

func TestAblMechShape(t *testing.T) {
	t.Parallel()
	r, err := AblMech(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	none, cap, nic := r.Rows[0], r.Rows[1], r.Rows[2]
	// Both mechanisms restore the victim.
	if cap.VictimMean > none.VictimMean*0.85 || nic.VictimMean > none.VictimMean*0.85 {
		t.Errorf("victim: none %.1f, cap %.1f, nic %.1f", none.VictimMean, cap.VictimMean, nic.VictimMean)
	}
	// The NIC limit leaves the interferer far more CPU than the CPU cap.
	if nic.IntfCPU < 5*cap.IntfCPU {
		t.Errorf("interferer CPU: nic %.4fs vs cap %.4fs — expected a large gap", nic.IntfCPU, cap.IntfCPU)
	}
	renderBoth(t, r)
}

func TestAblEventsShape(t *testing.T) {
	t.Parallel()
	r, err := AblEvents(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(mode string, cap int) AblEventsRow {
		for _, row := range r.Rows {
			if row.Mode == mode && row.Cap == cap {
				return row
			}
		}
		t.Fatalf("missing %s/%d", mode, cap)
		return AblEventsRow{}
	}
	// Under the tight cap, events beat polling on throughput.
	if get("events", 10).ReqPerS < 1.2*get("polling", 10).ReqPerS {
		t.Errorf("events %f vs polling %f at cap 10",
			get("events", 10).ReqPerS, get("polling", 10).ReqPerS)
	}
	// Uncapped, polling has lower latency (no interrupt cost in the path).
	if get("polling", 0).Mean > get("events", 0).Mean {
		t.Errorf("uncapped polling %.1f above events %.1f",
			get("polling", 0).Mean, get("events", 0).Mean)
	}
	renderBoth(t, r)
}

func TestAblCapacityShape(t *testing.T) {
	t.Parallel()
	r, err := AblCapacity(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !r.Rows[0].WithinSLA {
		t.Error("a single app must be within SLA")
	}
	// Worst latency is non-decreasing with density (tolerance for
	// scheduling phase effects).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].WorstMean < r.Rows[i-1].WorstMean*0.97 {
			t.Errorf("density %d worst %.1f below density %d worst %.1f",
				r.Rows[i].Apps, r.Rows[i].WorstMean, r.Rows[i-1].Apps, r.Rows[i-1].WorstMean)
		}
	}
	renderBoth(t, r)
}

func TestAblPlacementShape(t *testing.T) {
	t.Parallel()
	r, err := AblPlacement(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 { // 4 strategies × 2 fleet scales
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(strategy string, hosts int) AblPlacementRow {
		for _, row := range r.Rows {
			if row.Strategy == strategy && row.Hosts == hosts {
				return row
			}
		}
		t.Fatalf("missing %s/%d", strategy, hosts)
		return AblPlacementRow{}
	}
	for _, hosts := range []int{4, 8} {
		ia, rd := get("intf-aware", hosts), get("random", hosts)
		// The scheduler's reason to exist: strictly higher SLA attainment
		// than random placement at every fleet scale.
		if ia.SLAPct <= rd.SLAPct {
			t.Errorf("%d hosts: intf-aware %.1f%% SLA not above random %.1f%%",
				hosts, ia.SLAPct, rd.SLAPct)
		}
		// Segregation keeps even the worst app near base latency.
		if ia.WorstMean > r.SLA {
			t.Errorf("%d hosts: intf-aware worst mean %.1f µs above SLA %.1f",
				hosts, ia.WorstMean, r.SLA)
		}
	}
	_, csv := renderBoth(t, r)
	if !strings.Contains(csv, "strategy,hosts,vms,sla_pct") {
		t.Error("rendering content")
	}
}

func TestSoftRTShape(t *testing.T) {
	t.Parallel()
	r, err := SoftRT(Options{Duration: 500 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	alone, bulk, managed := r.Rows[0], r.Rows[1], r.Rows[2]
	if alone.MissRate != 0 {
		t.Errorf("alone miss rate %.2f", alone.MissRate)
	}
	if bulk.MissRate < 0.2 {
		t.Errorf("bulk miss rate %.2f too low", bulk.MissRate)
	}
	if managed.MissRate > bulk.MissRate/2 {
		t.Errorf("IOShares miss rate %.2f vs bulk %.2f", managed.MissRate, bulk.MissRate)
	}
	renderBoth(t, r)
}

func TestOptionsDefaults(t *testing.T) {
	t.Parallel()
	o := Options{}.WithDefaults()
	if o.Duration != 2*sim.Second || o.Warmup != 100*sim.Millisecond {
		t.Errorf("defaults: %+v", o)
	}
}

func TestAblFaultsShape(t *testing.T) {
	t.Parallel()
	r, err := AblFaults(Options{Duration: 400 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 { // 4 intensities × 2 stacks
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(storms float64, stack string) AblFaultsRow {
		for _, row := range r.Rows {
			if row.StormsPerSec == storms && row.Stack == stack {
				return row
			}
		}
		t.Fatalf("missing %v/%s", storms, stack)
		return AblFaultsRow{}
	}
	// No faults: the stacks are indistinguishable and healthy.
	n0, a0 := get(0, "naive"), get(0, "aware")
	if n0.SLAPct < 99 || a0.SLAPct < 99 {
		t.Errorf("fault-free SLA naive %.1f%% / aware %.1f%%, want ~100", n0.SLAPct, a0.SLAPct)
	}
	if n0.Faults != 0 || n0.Wrongful != 0 || a0.Held != 0 {
		t.Errorf("fault-free run recorded faults=%d wrongful=%d held=%d", n0.Faults, n0.Wrongful, a0.Held)
	}
	for _, row := range r.Rows {
		// The gate's contract: the aware stack never throttles on stale
		// evidence, at any intensity.
		if row.Stack == "aware" && row.Wrongful != 0 {
			t.Errorf("aware stack at %v storms/s: %d wrongful throttles, want 0",
				row.StormsPerSec, row.Wrongful)
		}
	}
	// At the top intensity the aware stack must hold what the naive stack
	// gives away (the full-length experiment shows naive <70%, aware >90%;
	// the quick run just demands separation and naive wrongful throttles).
	nTop, aTop := get(24, "naive"), get(24, "aware")
	if nTop.Wrongful == 0 {
		t.Error("top intensity never wrongfully throttled the naive stack")
	}
	if aTop.SLAPct <= nTop.SLAPct {
		t.Errorf("top intensity: aware %.1f%% SLA not above naive %.1f%%", aTop.SLAPct, nTop.SLAPct)
	}
	if aTop.Held == 0 {
		t.Error("aware stack held no tightenings under heavy faults")
	}
	_, csv := renderBoth(t, r)
	if !strings.Contains(csv, "storms_per_sec,stack,sla_pct") {
		t.Error("rendering content")
	}
}

func TestAblWorkloadShape(t *testing.T) {
	t.Parallel()
	r, err := AblWorkload(Options{Duration: 500 * sim.Millisecond, Warmup: 50 * sim.Millisecond, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 { // 5 loads × 2 policies
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.CapacityPerTenant <= 0 {
		t.Fatalf("capacity %.1f", r.CapacityPerTenant)
	}
	get := func(load int, policy string) AblWorkloadRow {
		for _, row := range r.Rows {
			if row.LoadPct == load && row.Policy == policy {
				return row
			}
		}
		t.Fatalf("missing %d%%/%s", load, policy)
		return AblWorkloadRow{}
	}
	for _, policy := range []string{"freemarket", "ioshares"} {
		light, knee := get(50, policy), get(90, policy)
		// The hockey stick: open-loop queueing past the knee blows the tail
		// in a way closed-loop clients can never show.
		if knee.P99 < 5*light.P99 {
			t.Errorf("%s: p99 %.0f at 90%% load not ≥5× p99 %.0f at 50%%",
				policy, knee.P99, light.P99)
		}
		// Light load actually is light: the p50 stays near the base RTT.
		if l := get(30, policy); l.P50 > workloadSLAUs {
			t.Errorf("%s: p50 %.0f at 30%% load above SLA %.0f — spiral?",
				policy, l.P50, workloadSLAUs)
		}
	}
	// At the knee IOShares keeps the backlog bounded where FreeMarket lets
	// it run away (6.8 ms vs 71 ms in the reference run).
	if ios, fm := get(90, "ioshares"), get(90, "freemarket"); ios.P99 >= fm.P99 {
		t.Errorf("90%% load: ioshares p99 %.0f not below freemarket %.0f", ios.P99, fm.P99)
	}
	renderBoth(t, r)
}

func TestAblWorkloadMixShape(t *testing.T) {
	t.Parallel()
	r, err := AblWorkloadMix(Options{Duration: 500 * sim.Millisecond, Warmup: 50 * sim.Millisecond, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	none, fm, ios := r.Rows[0], r.Rows[1], r.Rows[2]
	// The headline: strict shares keep the latency tenant inside its SLO
	// through the bulk bursts; pricing alone does not.
	if ios.LatAttainPct < fm.LatAttainPct+20 {
		t.Errorf("ioshares attainment %.1f%% not clearly above freemarket %.1f%%",
			ios.LatAttainPct, fm.LatAttainPct)
	}
	if fm.LatAttainPct < none.LatAttainPct {
		t.Errorf("freemarket attainment %.1f%% below unmanaged %.1f%%",
			fm.LatAttainPct, none.LatAttainPct)
	}
	// Protection is paid for in bulk goodput.
	if ios.BulkMBps >= none.BulkMBps {
		t.Errorf("ioshares bulk %.1f MB/s not below unmanaged %.1f", ios.BulkMBps, none.BulkMBps)
	}
	// The closed-loop latency tenant turns lower latency into higher rate.
	if ios.LatCompletedPerSec <= none.LatCompletedPerSec {
		t.Errorf("ioshares lat %.0f req/s not above unmanaged %.0f",
			ios.LatCompletedPerSec, none.LatCompletedPerSec)
	}
	renderBoth(t, r)
}

func TestAblWorkloadBurstShape(t *testing.T) {
	t.Parallel()
	r, err := AblWorkloadBurst(Options{Duration: 500 * sim.Millisecond, Warmup: 50 * sim.Millisecond, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 { // 4 factors × 2 admission policies
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(factor int, admission string) AblWorkloadBurstRow {
		for _, row := range r.Rows {
			if row.Factor == factor && row.Admission == admission {
				return row
			}
		}
		t.Fatalf("missing f=%d/%s", factor, admission)
		return AblWorkloadBurstRow{}
	}
	// Same mean load, packed into ever-sharper bursts: p99 must climb.
	prev := 0.0
	for _, f := range []int{1, 2, 4, 8} {
		row := get(f, "admit-all")
		if row.P99 < prev {
			t.Errorf("admit-all p99 %.0f at f=%d below %.0f at lower factor", row.P99, f, prev)
		}
		if row.ShedPct != 0 {
			t.Errorf("admit-all shed %.1f%% at f=%d", row.ShedPct, f)
		}
		prev = row.P99
	}
	// The cap sheds the burst excess at the door and keeps the tail bounded.
	capped, open := get(8, "queue-cap(32)"), get(8, "admit-all")
	if capped.P99 > open.P99/2 {
		t.Errorf("f=8: queue-cap p99 %.0f not well below admit-all %.0f", capped.P99, open.P99)
	}
	if capped.ShedPct <= 0 {
		t.Error("f=8: queue-cap shed nothing")
	}
	renderBoth(t, r)
}
