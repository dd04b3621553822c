package experiments

import (
	"io"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/softrt"
	"resex/internal/workload"
)

// SoftRTRow is one deployment's stream outcome.
type SoftRTRow struct {
	Config   string
	MissRate float64
	MeanUs   float64
	JitterUs float64
}

// SoftRTResult extends the evaluation to the paper's second motivating
// workload class: soft-real-time media delivery. It measures a 64KB/2ms
// media stream's deadline-miss rate alone, under 2MB interference, and
// under ResEx/IOShares.
type SoftRTResult struct {
	DeadlineUs float64
	Rows       []SoftRTRow
}

// Title implements Result.
func (r *SoftRTResult) Title() string {
	return "Extension: soft-real-time stream (VoIP/media class) under interference"
}

// WriteText implements Result.
func (r *SoftRTResult) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s (deadline %.0f µs)\n\n", r.Title(), r.DeadlineUs)
	ew.printf("%-24s %10s %12s %12s\n", "deployment", "miss rate", "latency(µs)", "jitter(µs)")
	for _, row := range r.Rows {
		ew.printf("%-24s %9.1f%% %12.1f %12.1f\n",
			row.Config, row.MissRate*100, row.MeanUs, row.JitterUs)
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *SoftRTResult) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("deployment,miss_rate,latency_us,jitter_us\n")
	for _, row := range r.Rows {
		ew.printf("%s,%g,%g,%g\n", row.Config, row.MissRate, row.MeanUs, row.JitterUs)
	}
	return ew.err
}

// SoftRT runs the three deployments.
func SoftRT(o Options) (*SoftRTResult, error) {
	o = o.WithDefaults()
	const deadline = 100 * sim.Microsecond
	run := func(o Options, name string, withBulk, managed bool) (SoftRTRow, error) {
		tb := cluster.New(cluster.Config{})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		st, err := softrt.New(tb, hostA, hostB, softrt.Config{
			FrameSize: 64 << 10,
			Period:    2 * sim.Millisecond,
			Deadline:  deadline,
		})
		if err != nil {
			return SoftRTRow{}, err
		}
		var mgr *resex.Manager
		if managed {
			dom0 := hostA.Dom0VCPU()
			mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
			mgr = resex.New(tb.Eng, hostA.HV, mon, dom0, resex.NewIOShares(), resex.Config{})
			mon.Start(tb.Eng)
			mgr.Start()
			// The stream's victim feedback comes from a collocated trading
			// app's agent, as in the paper's setup.
			trading, err := tb.NewApp("trading", hostA, hostB,
				benchex.ServerConfig{BufferSize: BaseBuffer},
				benchex.ClientConfig{BufferSize: BaseBuffer, Seed: o.Seed + 1})
			if err != nil {
				return SoftRTRow{}, err
			}
			if _, err := mgr.Manage(trading.ServerVM.Dom, trading.Server.SendCQ(), workload.BaseSLAUs); err != nil {
				return SoftRTRow{}, err
			}
			benchex.NewAgent(trading.Server, trading.ServerVM.Dom.ID(), mgr).Start()
			trading.Start()
		}
		if withBulk {
			bulk, err := tb.NewApp("bulk", hostA, hostB,
				benchex.ServerConfig{BufferSize: workload.BulkBuffer, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true, RecvSlots: 18},
				benchex.ClientConfig{BufferSize: workload.BulkBuffer, Window: 16, Arrivals: benchex.Bursty{Mean: 3700 * sim.Microsecond}, Seed: o.Seed + 999})
			if err != nil {
				return SoftRTRow{}, err
			}
			if mgr != nil {
				if _, err := mgr.Manage(bulk.ServerVM.Dom, bulk.Server.SendCQ(), 0); err != nil {
					return SoftRTRow{}, err
				}
			}
			bulk.Start()
		}
		stopAudit := o.observe(tb.Eng, &snapshot.Source{TB: tb, Managers: []*resex.Manager{mgr}})
		st.Start()
		tb.Eng.RunUntil(o.Duration)
		stopAudit()
		s := st.Stats()
		row := SoftRTRow{
			Config:   name,
			MissRate: s.MissRate(),
			MeanUs:   s.Latency.Mean(),
			JitterUs: s.Jitter.Mean(),
		}
		tb.Eng.Shutdown()
		return row, nil
	}
	mk := func(name string, withBulk, managed bool) func(Options) (SoftRTRow, error) {
		return func(o Options) (SoftRTRow, error) {
			return run(o, name, withBulk, managed)
		}
	}
	rows, err := RunSweep(o, []func(Options) (SoftRTRow, error){
		mk("alone", false, false),
		mk("with 2MB bulk", true, false),
		mk("with bulk + IOShares", true, true),
	})
	if err != nil {
		return nil, err
	}
	return &SoftRTResult{DeadlineUs: deadline.Microseconds(), Rows: rows}, nil
}
