package experiments

import (
	"fmt"
	"io"

	"resex/internal/resex"
	"resex/internal/resos"
	"resex/internal/sim"
	"resex/internal/stats"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// Figures 5 & 7: policy timelines (latency per iteration + interferer cap).
// ---------------------------------------------------------------------------

// TimelineResult reproduces the SLA-performance timelines: the reporting
// VM's latency per iteration for Base / Interfered / Policy runs, plus the
// interfering VM's CPU cap and both VMs' Reso balances per interval under
// the policy.
type TimelineResult struct {
	PolicyName string
	Figure     int

	BaseMean, IntfMean, PolicyMean float64
	BaseStd, IntfStd, PolicyStd    float64

	// Latency is per-iteration latency under the policy (µs vs iteration).
	Latency *stats.Series
	// IntfCap is the interfering VM's cap over time (percent vs interval).
	IntfCap *stats.Series
	// RepResos and IntfResos are Reso balances per interval (Figure 6).
	RepResos, IntfResos *stats.Series
	// RepCap is the reporting VM's cap per interval (stays at 100).
	RepCap *stats.Series
}

// Title implements Result.
func (r *TimelineResult) Title() string {
	return fmt.Sprintf("Figure %d: %s SLA performance (latency timeline + caps)", r.Figure, r.PolicyName)
}

// WriteText implements Result.
func (r *TimelineResult) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("Base latency 64KB VM:        %8.1f µs (std %.1f)\n", r.BaseMean, r.BaseStd)
	ew.printf("Interfered latency 64KB VM:  %8.1f µs (std %.1f)\n", r.IntfMean, r.IntfStd)
	ew.printf("%s latency 64KB VM:  %8.1f µs (std %.1f)\n", r.PolicyName, r.PolicyMean, r.PolicyStd)
	if r.IntfMean > r.BaseMean {
		rec := (r.IntfMean - r.PolicyMean) / (r.IntfMean - r.BaseMean) * 100
		ew.printf("Interference recovered:      %8.0f %%\n", rec)
	}
	ew.printf("\nLatency vs iteration (downsampled to 20 buckets, µs):\n")
	for _, p := range r.Latency.Downsample(20).Points() {
		ew.printf("  iter %7.0f: %7.1f\n", p.X, p.Y)
	}
	if last, ok := r.IntfCap.Last(); ok {
		caps := r.IntfCap.YSummary()
		ew.printf("\n2MB VM cap: min %.0f%%, mean %.0f%%, final %.0f%%\n", caps.Min(), caps.Mean(), last.Y)
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *TimelineResult) WriteCSV(w io.Writer) error {
	set := stats.NewSeriesSet()
	lat := set.Add("latency_us")
	for _, p := range r.Latency.Downsample(1000).Points() {
		lat.Add(p.X, p.Y)
	}
	cap := set.Add("intf_cap_pct")
	for _, p := range r.IntfCap.Downsample(1000).Points() {
		cap.Add(p.X, p.Y)
	}
	return set.WriteCSV(w)
}

// tlSide is one leg of the Base / Interfered / Policy triple; only the
// policy leg fills the series fields.
type tlSide struct {
	Mean, Std  float64
	PolicyName string
	Latency    *stats.Series
	IntfCap    *stats.Series
	RepCap     *stats.Series
	RepResos   *stats.Series
	IntfResos  *stats.Series
}

// runTimeline executes the Base / Interfered / Policy triple for a policy
// constructor and collects the timeline series.
func runTimeline(o Options, figure int, mkPolicy func() resex.Policy) (*TimelineResult, error) {
	o = o.WithDefaults()

	// Each leg runs under its own point's options, so its engine arms the
	// capture breakpoint under that point's seed at any -parallel width.
	meanStd := func(o Options, cfg ScenarioConfig) (tlSide, error) {
		s, err := Build(cfg)
		if err != nil {
			return tlSide{}, err
		}
		s.keepWarmup = true
		s.RunMeasured(o)
		st := s.RepStats()
		return tlSide{Mean: st.Total.Mean(), Std: st.Total.StdDev()}, nil
	}
	points := []func(Options) (tlSide, error){
		func(o Options) (tlSide, error) {
			return meanStd(o, ScenarioConfig{Timeline: true, Seed: o.Seed})
		},
		func(o Options) (tlSide, error) {
			return meanStd(o, ScenarioConfig{Timeline: true, IntfBuffer: workload.BulkBuffer, Seed: o.Seed})
		},
		func(o Options) (tlSide, error) {
			// Policy run with observers.
			policy := mkPolicy()
			side := tlSide{PolicyName: policy.Name()}
			s, err := Build(ScenarioConfig{
				Timeline:   true,
				IntfBuffer: workload.BulkBuffer,
				Policy:     policy,
				Seed:       o.Seed,
			})
			if err != nil {
				return tlSide{}, err
			}
			side.IntfCap = stats.NewSeries("intf-cap")
			side.RepCap = stats.NewSeries("rep-cap")
			side.RepResos = stats.NewSeries("rep-resos")
			side.IntfResos = stats.NewSeries("intf-resos")
			repVM := s.Mgr.VMs()[0]
			intfVM := s.Mgr.VM(s.Intf.ServerVM.Dom.ID())
			s.Mgr.Observe(func(d *resex.IntervalData) {
				x := float64(d.Index)
				capOf := func(vm *resex.ManagedVM) float64 {
					if c := vm.Dom.Cap(); c > 0 {
						return float64(c)
					}
					return 100
				}
				side.IntfCap.Add(x, capOf(intfVM))
				side.RepCap.Add(x, capOf(repVM))
				side.RepResos.Add(x, float64(repVM.Account.Balance()))
				side.IntfResos.Add(x, float64(intfVM.Account.Balance()))
			})
			s.keepWarmup = true
			s.RunMeasured(o)
			st := s.RepStats()
			side.Mean, side.Std = st.Total.Mean(), st.Total.StdDev()
			side.Latency = stats.NewSeries("latency")
			for i, rec := range st.Timeline {
				side.Latency.Add(float64(i), rec.Total().Microseconds())
			}
			return side, nil
		},
	}
	sides, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	pol := sides[2]
	return &TimelineResult{
		Figure:     figure,
		PolicyName: pol.PolicyName,
		BaseMean:   sides[0].Mean, BaseStd: sides[0].Std,
		IntfMean: sides[1].Mean, IntfStd: sides[1].Std,
		PolicyMean: pol.Mean, PolicyStd: pol.Std,
		Latency: pol.Latency,
		IntfCap: pol.IntfCap, RepCap: pol.RepCap,
		RepResos: pol.RepResos, IntfResos: pol.IntfResos,
	}, nil
}

// Fig5 reproduces the FreeMarket timeline.
func Fig5(o Options) (*TimelineResult, error) {
	return runTimeline(o, 5, func() resex.Policy { return resex.NewFreeMarket() })
}

// Fig7 reproduces the IOShares timeline.
func Fig7(o Options) (*TimelineResult, error) {
	return runTimeline(o, 7, func() resex.Policy { return resex.NewIOShares() })
}

// ---------------------------------------------------------------------------
// Figure 6: Reso depletion and rated capping under FreeMarket.
// ---------------------------------------------------------------------------

// Fig6Result shows per-interval Reso balances and caps for both VMs under
// FreeMarket (derived from the same run shape as Figure 5).
type Fig6Result struct {
	Timeline *TimelineResult
	// Depletion summary.
	IntfMinFraction float64 // lowest balance fraction the interferer hit
	IntfCapEngaged  bool
	RepMinFraction  float64
	Allocation      float64
}

// Title implements Result.
func (r *Fig6Result) Title() string {
	return "Figure 6: Reso balances and rated capping during FreeMarket"
}

// WriteText implements Result.
func (r *Fig6Result) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("Per-epoch allocation per VM: %.0f Resos\n", r.Allocation)
	ew.printf("64KB VM minimum balance:  %6.1f%% of allocation (never capped: %v)\n",
		r.RepMinFraction*100, r.Timeline.RepCap.YSummary().Min() >= 100)
	ew.printf("2MB  VM minimum balance:  %6.1f%% of allocation (cap engaged: %v)\n",
		r.IntfMinFraction*100, r.IntfCapEngaged)
	ew.printf("\nInterval series (downsampled, balance Resos / cap %%):\n")
	rr := r.Timeline.RepResos.Downsample(20).Points()
	ir := r.Timeline.IntfResos.Downsample(20).Points()
	ic := r.Timeline.IntfCap.Downsample(20).Points()
	ew.printf("  %-10s %12s %12s %10s\n", "interval", "64KB resos", "2MB resos", "2MB cap%")
	for i := range rr {
		ew.printf("  %-10.0f %12.0f %12.0f %10.0f\n", rr[i].X, rr[i].Y, ir[i].Y, ic[i].Y)
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	set := stats.NewSeriesSet()
	for _, col := range []struct {
		name string
		s    *stats.Series
	}{
		{"rep_resos", r.Timeline.RepResos}, {"intf_resos", r.Timeline.IntfResos},
		{"rep_cap", r.Timeline.RepCap}, {"intf_cap", r.Timeline.IntfCap},
	} {
		dst := set.Add(col.name)
		for _, p := range col.s.Points() {
			dst.Add(p.X, p.Y)
		}
	}
	return set.WriteCSV(w)
}

// Fig6 runs FreeMarket and extracts the Reso-depletion view.
func Fig6(o Options) (*Fig6Result, error) {
	tl, err := Fig5(o)
	if err != nil {
		return nil, err
	}
	alloc := float64(resos.Allocation(2)) // the 2-VM per-epoch allocation
	res := &Fig6Result{Timeline: tl, Allocation: alloc, IntfMinFraction: 1, RepMinFraction: 1}
	for _, p := range tl.IntfResos.Points() {
		if f := p.Y / alloc; f < res.IntfMinFraction {
			res.IntfMinFraction = f
		}
	}
	for _, p := range tl.RepResos.Points() {
		if f := p.Y / alloc; f < res.RepMinFraction {
			res.RepMinFraction = f
		}
	}
	res.IntfCapEngaged = tl.IntfCap.YSummary().Min() < 100
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 8: non-interference cases.
// ---------------------------------------------------------------------------

// Fig8Row is one configuration bar.
type Fig8Row struct {
	Config string  `col:"configuration,%-28s,configuration"`
	Mean   float64 `col:"latency(µs),%12.1f,latency_us"`
	Std    float64 `col:"std,%10.1f,std_us"`
}

// Fig8Result holds all configurations.
type Fig8Result struct{ Rows []Fig8Row }

// Title implements Result.
func (r *Fig8Result) Title() string {
	return "Figure 8: FreeMarket and IOShares on non-interference cases"
}

// WriteText implements Result.
func (r *Fig8Result) WriteText(w io.Writer) error { return writeTable(w, r.Title(), r.Rows) }

// WriteCSV implements Result.
func (r *Fig8Result) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// Fig8 runs the paper's five bars: Base, FreeMarket and IOShares with a
// twin 64KB VM, and FreeMarket and IOShares with a quiet 2MB VM (paced to
// 10 requests per epoch).
func Fig8(o Options) (*Fig8Result, error) {
	o = o.WithDefaults()
	type caseDef struct {
		name string
		cfg  ScenarioConfig
	}
	mkFM := func() resex.Policy { return resex.NewFreeMarket() }
	mkIOS := func() resex.Policy { return resex.NewIOShares() }
	quiet := func(p resex.Policy) ScenarioConfig {
		return ScenarioConfig{
			IntfBuffer:   workload.BulkBuffer,
			IntfWindow:   1,
			IntfInterval: 100 * sim.Millisecond, // 10 requests per 1 s epoch
			Policy:       p,
		}
	}
	twin := func(p resex.Policy) ScenarioConfig {
		return ScenarioConfig{
			Reporters: 2, // twin 64KB applications
			Policy:    p,
		}
	}
	cases := []caseDef{
		{"Base-64KB", ScenarioConfig{}},
		{"FM-64KB-64KB", twin(mkFM())},
		{"IOS-64KB-64KB", twin(mkIOS())},
		{"FM-64KB-2MB-NoIntf", quiet(mkFM())},
		{"IOS-64KB-2MB-NoIntf", quiet(mkIOS())},
	}
	var points []func(Options) (Fig8Row, error)
	for _, c := range cases {
		points = append(points, func(o Options) (Fig8Row, error) {
			s, err := Build(c.cfg)
			if err != nil {
				return Fig8Row{}, err
			}
			s.RunMeasured(o)
			st := s.RepStats()
			return Fig8Row{Config: c.name, Mean: st.Total.Mean(), Std: st.Total.StdDev()}, nil
		})
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Figure 9: FreeMarket vs IOShares vs interferer buffer size.
// ---------------------------------------------------------------------------

// Fig9Row is one buffer-size group.
type Fig9Row struct {
	Buffer                     int
	Base, FreeMarket, IOShares float64
}

// Fig9Result holds the sweep.
type Fig9Result struct{ Rows []Fig9Row }

// Title implements Result.
func (r *Fig9Result) Title() string {
	return "Figure 9: FreeMarket and IOShares vs interfering buffer size"
}

// WriteText implements Result.
func (r *Fig9Result) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("%-10s %12s %12s %12s\n", "buffer", "Base(µs)", "FreeMarket", "IOShares")
	for _, row := range r.Rows {
		ew.printf("%-10s %12.1f %12.1f %12.1f\n", ByteSize(row.Buffer), row.Base, row.FreeMarket, row.IOShares)
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *Fig9Result) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("buffer,base_us,freemarket_us,ioshares_us\n")
	for _, row := range r.Rows {
		ew.printf("%d,%g,%g,%g\n", row.Buffer, row.Base, row.FreeMarket, row.IOShares)
	}
	return ew.err
}

// Fig9 sweeps the interferer buffer (64KB–1MB, as in the paper) under no
// policy reference (Base, no interferer), FreeMarket and IOShares.
func Fig9(o Options) (*Fig9Result, error) {
	o = o.WithDefaults()
	runPolicy := func(o Options, buf int, mk func() resex.Policy) (float64, error) {
		s, err := Build(ScenarioConfig{IntfBuffer: buf, Policy: mk(), Seed: o.Seed})
		if err != nil {
			return 0, err
		}
		s.RunMeasured(o)
		return s.RepStats().Total.Mean(), nil
	}
	// Point 0 is the shared Base reference (no interferer); then each buffer
	// contributes a FreeMarket and an IOShares point, in that order.
	points := []func(Options) (float64, error){
		func(o Options) (float64, error) {
			s, err := Build(ScenarioConfig{Seed: o.Seed})
			if err != nil {
				return 0, err
			}
			s.RunMeasured(o)
			return s.RepStats().Total.Mean(), nil
		},
	}
	buffers := []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	for _, buf := range buffers {
		points = append(points,
			func(o Options) (float64, error) {
				return runPolicy(o, buf, func() resex.Policy { return resex.NewFreeMarket() })
			},
			func(o Options) (float64, error) {
				return runPolicy(o, buf, func() resex.Policy { return resex.NewIOShares() })
			})
	}
	means, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	for i, buf := range buffers {
		res.Rows = append(res.Rows, Fig9Row{
			Buffer: buf, Base: means[0],
			FreeMarket: means[1+2*i], IOShares: means[2+2*i],
		})
	}
	return res, nil
}
