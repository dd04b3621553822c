package experiments

import (
	"fmt"
	"io"

	"resex/internal/stats"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 1: distribution of request latencies, Normal vs Interfered server.
// ---------------------------------------------------------------------------

// Fig1Result holds the two latency histograms.
type Fig1Result struct {
	Normal                     *stats.Histogram
	Interfered                 *stats.Histogram
	NormalMean, InterferedMean float64
	NormalStd, InterferedStd   float64
}

// Title implements Result.
func (r *Fig1Result) Title() string {
	return "Figure 1: Distribution of request latencies, Normal vs Interfered server"
}

// WriteText implements Result.
func (r *Fig1Result) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("Normal server:     mean %.1f µs, std %.1f µs, mode %.0f µs\n",
		r.NormalMean, r.NormalStd, r.Normal.Mode())
	ew.printf("%s", r.Normal.Render(50))
	ew.printf("\nInterfered server: mean %.1f µs, std %.1f µs, mode %.0f µs\n",
		r.InterferedMean, r.InterferedStd, r.Interfered.Mode())
	ew.printf("%s", r.Interfered.Render(50))
	return ew.err
}

// WriteCSV implements Result.
func (r *Fig1Result) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("latency_us,normal_count,interfered_count\n")
	for i := 0; i < r.Normal.Buckets(); i++ {
		ew.printf("%g,%d,%d\n", r.Normal.BucketLo(i), r.Normal.BucketCount(i), r.Interfered.BucketCount(i))
	}
	return ew.err
}

// fig1Side is one half of Figure 1: the latency distribution of the
// reporting server with or without the interferer.
type fig1Side struct {
	Hist      *stats.Histogram
	Mean, Std float64
}

// Fig1 runs the motivation experiment: one 64KB server measured with and
// without a 2MB interference generator; no ResEx.
func Fig1(o Options) (*Fig1Result, error) {
	o = o.WithDefaults()
	var points []func(Options) (fig1Side, error)
	for _, interfered := range []bool{false, true} {
		points = append(points, func(o Options) (fig1Side, error) {
			cfg := ScenarioConfig{Timeline: true, Seed: o.Seed}
			if interfered {
				cfg.IntfBuffer = workload.BulkBuffer
			}
			s, err := Build(cfg)
			if err != nil {
				return fig1Side{}, err
			}
			s.RunMeasured(o)
			st := s.RepStats()
			side := fig1Side{
				Hist: stats.NewHistogram(100, 500, 80),
				Mean: st.Total.Mean(),
				Std:  st.Total.StdDev(),
			}
			for _, rec := range st.Timeline {
				side.Hist.Add(rec.Total().Microseconds())
			}
			return side, nil
		})
	}
	sides, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{
		Normal: sides[0].Hist, NormalMean: sides[0].Mean, NormalStd: sides[0].Std,
		Interfered: sides[1].Hist, InterferedMean: sides[1].Mean, InterferedStd: sides[1].Std,
	}, nil
}

// ---------------------------------------------------------------------------
// Figure 2: CTime/WTime/PTime vs number of servers, with and without load.
// ---------------------------------------------------------------------------

// Fig2Row is one bar group: n servers, with or without interfering load.
type Fig2Row struct {
	Servers             int
	Loaded              bool
	CTime, WTime, PTime float64 // means, µs
	CStd, WStd, PStd    float64
}

// Total returns the stacked height.
func (r Fig2Row) Total() float64 { return r.CTime + r.WTime + r.PTime }

// Fig2Result holds all rows.
type Fig2Result struct{ Rows []Fig2Row }

// Title implements Result.
func (r *Fig2Result) Title() string {
	return "Figure 2: Server latency components vs number of servers, ± interfering load"
}

// WriteText implements Result.
func (r *Fig2Result) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("%-8s %-6s %12s %12s %12s %10s\n", "servers", "load", "CTime(µs)", "WTime(µs)", "PTime(µs)", "total")
	for _, row := range r.Rows {
		load := "-"
		if row.Loaded {
			load = "yes"
		}
		ew.printf("%-8d %-6s %7.1f±%-4.0f %7.1f±%-4.0f %7.1f±%-4.0f %10.1f\n",
			row.Servers, load, row.CTime, row.CStd, row.WTime, row.WStd, row.PTime, row.PStd, row.Total())
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *Fig2Result) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("servers,loaded,ctime_us,ctime_std,wtime_us,wtime_std,ptime_us,ptime_std\n")
	for _, row := range r.Rows {
		ew.printf("%d,%v,%g,%g,%g,%g,%g,%g\n",
			row.Servers, row.Loaded, row.CTime, row.CStd, row.WTime, row.WStd, row.PTime, row.PStd)
	}
	return ew.err
}

// Fig2 sweeps 1–3 collocated 64KB servers, each with its own client,
// with and without an added interference generator.
func Fig2(o Options) (*Fig2Result, error) {
	o = o.WithDefaults()
	var points []func(Options) (Fig2Row, error)
	for _, n := range []int{1, 2, 3} {
		for _, loaded := range []bool{false, true} {
			points = append(points, func(o Options) (Fig2Row, error) {
				cfg := ScenarioConfig{Reporters: n, Seed: o.Seed}
				if loaded {
					cfg.IntfBuffer = workload.BulkBuffer
				}
				s, err := Build(cfg)
				if err != nil {
					return Fig2Row{}, err
				}
				s.RunMeasured(o)
				// Aggregate across the n reporting servers.
				var c, wt, p stats.Summary
				for _, app := range s.Reporters {
					st := app.Server.Stats()
					c.Merge(&st.C)
					wt.Merge(&st.W)
					p.Merge(&st.P)
				}
				return Fig2Row{
					Servers: n, Loaded: loaded,
					CTime: c.Mean(), CStd: c.StdDev(),
					WTime: wt.Mean(), WStd: wt.StdDev(),
					PTime: p.Mean(), PStd: p.StdDev(),
				}, nil
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Figure 3: latency with interferer capped at 100/BufferRatio, per buffer.
// ---------------------------------------------------------------------------

// Fig3Row is one bar: interferer buffer size with its ratio-derived cap.
type Fig3Row struct {
	BufferRatio         int
	IntfBuffer          int
	Cap                 int
	CTime, WTime, PTime float64
}

// Total returns the stacked height.
func (r Fig3Row) Total() float64 { return r.CTime + r.WTime + r.PTime }

// Fig3Result holds the sweep.
type Fig3Result struct{ Rows []Fig3Row }

// Title implements Result.
func (r *Fig3Result) Title() string {
	return "Figure 3: Reporting-server latency with interferer capped at 100/BufferRatio"
}

// WriteText implements Result.
func (r *Fig3Result) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("%-14s %-5s %10s %10s %10s %10s\n", "ratio(buffer)", "cap%", "CTime", "WTime", "PTime", "total(µs)")
	for _, row := range r.Rows {
		ew.printf("%3d(%-8s) %-5d %10.1f %10.1f %10.1f %10.1f\n",
			row.BufferRatio, ByteSize(row.IntfBuffer), row.Cap, row.CTime, row.WTime, row.PTime, row.Total())
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *Fig3Result) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("buffer_ratio,intf_buffer,cap_pct,ctime_us,wtime_us,ptime_us\n")
	for _, row := range r.Rows {
		ew.printf("%d,%d,%d,%g,%g,%g\n", row.BufferRatio, row.IntfBuffer, row.Cap, row.CTime, row.WTime, row.PTime)
	}
	return ew.err
}

// Fig3 sweeps the interferer buffer from 2MB down to 64KB, statically
// capping it at 100/BufferRatio (the relationship §V-B establishes).
func Fig3(o Options) (*Fig3Result, error) {
	o = o.WithDefaults()
	var points []func(Options) (Fig3Row, error)
	for _, buf := range []int{2 << 20, 1 << 20, 512 << 10, 256 << 10, 128 << 10, 64 << 10} {
		ratio := buf / BaseBuffer
		cap := 100 / ratio
		points = append(points, func(o Options) (Fig3Row, error) {
			cfg := ScenarioConfig{IntfBuffer: buf, Seed: o.Seed}
			if cap < 100 {
				cfg.IntfCap = cap
			}
			s, err := Build(cfg)
			if err != nil {
				return Fig3Row{}, err
			}
			s.RunMeasured(o)
			st := s.RepStats()
			return Fig3Row{
				BufferRatio: ratio, IntfBuffer: buf, Cap: cap,
				CTime: st.C.Mean(), WTime: st.W.Mean(), PTime: st.P.Mean(),
			}, nil
		})
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// Figure 4: latency vs CPU cap for the 2MB interferer.
// ---------------------------------------------------------------------------

// Fig4Row is one bar of the cap sweep. Cap 0 means Base (no interferer).
type Fig4Row struct {
	Cap                 int // 0 = Base
	CTime, WTime, PTime float64
}

// Total returns the stacked height.
func (r Fig4Row) Total() float64 { return r.CTime + r.WTime + r.PTime }

// Fig4Result holds the sweep.
type Fig4Result struct{ Rows []Fig4Row }

// Title implements Result.
func (r *Fig4Result) Title() string {
	return "Figure 4: Reporting-server latency as the 2MB interferer's CPU cap decreases"
}

// WriteText implements Result.
func (r *Fig4Result) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n", r.Title())
	ew.printf("%-8s %10s %10s %10s %10s\n", "cap%", "CTime", "WTime", "PTime", "total(µs)")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%d", row.Cap)
		if row.Cap == 0 {
			label = "Base"
		}
		ew.printf("%-8s %10.1f %10.1f %10.1f %10.1f\n", label, row.CTime, row.WTime, row.PTime, row.Total())
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *Fig4Result) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("cap_pct,ctime_us,wtime_us,ptime_us\n")
	for _, row := range r.Rows {
		ew.printf("%d,%g,%g,%g\n", row.Cap, row.CTime, row.WTime, row.PTime)
	}
	return ew.err
}

// Fig4 sweeps the interferer's static cap 100,90,…,10,3 and adds the Base
// (no interferer) reference.
func Fig4(o Options) (*Fig4Result, error) {
	o = o.WithDefaults()
	var points []func(Options) (Fig4Row, error)
	for _, c := range []int{100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 3, 0} { // 0 = Base
		points = append(points, func(o Options) (Fig4Row, error) {
			cfg := ScenarioConfig{Seed: o.Seed}
			if c > 0 {
				cfg.IntfBuffer = workload.BulkBuffer
			}
			if c > 0 && c < 100 {
				cfg.IntfCap = c
			}
			s, err := Build(cfg)
			if err != nil {
				return Fig4Row{}, err
			}
			s.RunMeasured(o)
			st := s.RepStats()
			return Fig4Row{Cap: c, CTime: st.C.Mean(), WTime: st.W.Mean(), PTime: st.P.Mean()}, nil
		})
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Rows: rows}, nil
}

// ByteSize renders a buffer size like the paper's axis labels.
func ByteSize(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
