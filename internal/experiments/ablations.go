package experiments

import (
	"fmt"
	"io"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/fabric"
	"resex/internal/snapshot"
	"resex/internal/stats"
	"resex/internal/workload"
)

// Ablation experiments probe design choices the paper leaves implicit.
// They are registered alongside the figures (ids "abl-arb", "abl-mech",
// "abl-events", "abl-capacity"), and `resexsim -fig <id>` reproduces each.

// ---------------------------------------------------------------------------
// abl-arb: link arbitration discipline.
// ---------------------------------------------------------------------------

// AblArbRow is one discipline's victim measurement.
type AblArbRow struct {
	Discipline string  `col:"discipline,%-12s,discipline"`
	Mean       float64 `col:"mean(µs),%12.1f,mean_us"`
	P99        float64 `col:"p99(µs),%12.1f,p99_us"`
}

// AblArbResult compares per-MTU round-robin vs FIFO arbitration.
type AblArbResult struct{ Rows []AblArbRow }

// Title implements Result.
func (r *AblArbResult) Title() string {
	return "Ablation: link arbitration discipline under 2MB interference"
}

// WriteText implements Result.
func (r *AblArbResult) WriteText(w io.Writer) error { return writeTable(w, r.Title(), r.Rows) }

// WriteCSV implements Result.
func (r *AblArbResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// AblArb measures how much of the platform's latency tolerance comes from
// VL-style round-robin arbitration rather than from ResEx.
func AblArb(o Options) (*AblArbResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblArbRow, error)
	for _, disc := range []fabric.Discipline{fabric.RoundRobin, fabric.FIFO} {
		points = append(points, func(o Options) (AblArbRow, error) {
			s, err := Build(ScenarioConfig{IntfBuffer: workload.BulkBuffer, Discipline: disc, Timeline: true, Seed: o.Seed})
			if err != nil {
				return AblArbRow{}, err
			}
			s.RunMeasured(o)
			st := s.RepStats()
			sample := stats.NewSample(int(st.Served))
			for _, rec := range st.Timeline {
				sample.Add(rec.Total().Microseconds())
			}
			return AblArbRow{
				Discipline: disc.String(),
				Mean:       st.Total.Mean(),
				P99:        sample.Quantile(0.99),
			}, nil
		})
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblArbResult{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// abl-mech: CPU caps vs NIC per-flow rate limits.
// ---------------------------------------------------------------------------

// AblMechRow is one mechanism's outcome.
type AblMechRow struct {
	Mechanism  string  `col:"mechanism,%-16s,mechanism"`
	VictimMean float64 `col:"victim(µs),%12.1f,victim_us"`
	IntfCPU    float64 `col:"intf CPU(s),%12.4f,intf_cpu_s"` // seconds of CPU the interferer got
	IntfMBs    float64 `col:"intf MB/s,%14.1f,intf_mb_s"`    // interferer egress throughput
}

// AblMechResult compares the hypervisor's only lever (CPU caps) against
// direct NIC rate limiting.
type AblMechResult struct{ Rows []AblMechRow }

// Title implements Result.
func (r *AblMechResult) Title() string {
	return "Ablation: CPU cap vs NIC rate limit as the throttling mechanism"
}

// WriteText implements Result.
func (r *AblMechResult) WriteText(w io.Writer) error { return writeTable(w, r.Title(), r.Rows) }

// WriteCSV implements Result.
func (r *AblMechResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// AblMech runs the 2MB interference scenario unthrottled, CPU-capped at 3%,
// and NIC-limited to 30 MB/s.
func AblMech(o Options) (*AblMechResult, error) {
	o = o.WithDefaults()
	mk := func(name string, prep func(*Scenario)) func(Options) (AblMechRow, error) {
		return func(o Options) (AblMechRow, error) {
			s, err := Build(ScenarioConfig{IntfBuffer: workload.BulkBuffer, Seed: o.Seed})
			if err != nil {
				return AblMechRow{}, err
			}
			prep(s)
			s.RunMeasured(o)
			bytes := float64(s.Intf.Server.Stats().Served) * float64(workload.BulkBuffer)
			return AblMechRow{
				Mechanism:  name,
				VictimMean: s.RepStats().Total.Mean(),
				IntfCPU:    s.Intf.ServerVM.Dom.CPUTime().Seconds(),
				IntfMBs:    bytes / o.Duration.Seconds() / 1e6,
			}, nil
		}
	}
	rows, err := RunSweep(o, []func(Options) (AblMechRow, error){
		mk("none", func(*Scenario) {}),
		mk("cpu-cap-3", func(s *Scenario) { s.Intf.ServerVM.Dom.SetCap(3) }),
		mk("nic-30MBps", func(s *Scenario) { s.Intf.ServerQP.SetRateLimit(30e6) }),
	})
	if err != nil {
		return nil, err
	}
	return &AblMechResult{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// abl-events: busy-polling vs event-driven completions under a CPU cap.
// ---------------------------------------------------------------------------

// AblEventsRow is one completion mode's outcome at one cap.
type AblEventsRow struct {
	Mode    string
	Cap     int
	Mean    float64
	ReqPerS float64
}

// AblEventsResult compares completion modes across caps.
type AblEventsResult struct{ Rows []AblEventsRow }

// Title implements Result.
func (r *AblEventsResult) Title() string {
	return "Ablation: busy-polling vs event-driven completions under CPU caps"
}

// WriteText implements Result.
func (r *AblEventsResult) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s\n\n%-10s %-6s %12s %12s\n", r.Title(), "mode", "cap%", "latency(µs)", "req/s")
	for _, row := range r.Rows {
		cap := fmt.Sprintf("%d", row.Cap)
		if row.Cap == 0 {
			cap = "-"
		}
		ew.printf("%-10s %-6s %12.1f %12.0f\n", row.Mode, cap, row.Mean, row.ReqPerS)
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *AblEventsResult) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("mode,cap_pct,latency_us,req_per_s\n")
	for _, row := range r.Rows {
		ew.printf("%s,%d,%g,%g\n", row.Mode, row.Cap, row.Mean, row.ReqPerS)
	}
	return ew.err
}

// AblEvents sweeps caps {0, 25, 10} over the two completion modes of a
// pipelined 64KB server.
func AblEvents(o Options) (*AblEventsResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblEventsRow, error)
	for _, mode := range []bool{false, true} {
		for _, cap := range []int{0, 25, 10} {
			name := "polling"
			if mode {
				name = "events"
			}
			points = append(points, func(o Options) (AblEventsRow, error) {
				tb := cluster.New(cluster.Config{})
				hostA, hostB := tb.AddHost(1), tb.AddHost(2)
				app, err := tb.NewApp("app", hostA, hostB,
					benchex.ServerConfig{BufferSize: 64 << 10, EventDriven: mode},
					benchex.ClientConfig{BufferSize: 64 << 10, Window: 4, Seed: o.Seed + 1})
				if err != nil {
					return AblEventsRow{}, err
				}
				if cap > 0 {
					app.ServerVM.Dom.SetCap(cap)
				}
				stopAudit := o.observe(tb.Eng, &snapshot.Source{TB: tb})
				app.Start()
				tb.Eng.RunUntil(o.Duration)
				stopAudit()
				st := app.Server.Stats()
				row := AblEventsRow{
					Mode: name, Cap: cap, Mean: st.Total.Mean(),
					ReqPerS: float64(st.Served) / o.Duration.Seconds(),
				}
				tb.Eng.Shutdown()
				return row, nil
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblEventsResult{Rows: rows}, nil
}

// ---------------------------------------------------------------------------
// abl-capacity: consolidation density within an SLA.
// ---------------------------------------------------------------------------

// AblCapacityRow is the worst latency at a given density.
type AblCapacityRow struct {
	Apps      int     `col:"apps,%-6d,apps"`
	WorstMean float64 `col:"worst(µs),%14.1f,worst_mean_us"`
	WithinSLA bool    `col:"in SLA,%10v,within_sla"`
}

// AblCapacityResult is the paper's motivating consolidation question made
// quantitative: how many latency-sensitive apps fit per host?
type AblCapacityResult struct {
	SLA  float64
	Rows []AblCapacityRow
}

// Title implements Result.
func (r *AblCapacityResult) Title() string {
	return "Ablation: consolidation density of latency-sensitive applications"
}

// WriteText implements Result.
func (r *AblCapacityResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (SLA %.0f µs)", r.Title(), r.SLA), r.Rows)
}

// WriteCSV implements Result.
func (r *AblCapacityResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// AblCapacity packs 1..6 identical 64KB apps onto host A and reports the
// worst per-app mean latency at each density.
func AblCapacity(o Options) (*AblCapacityResult, error) {
	o = o.WithDefaults()
	const sla = 233.5 * 1.25
	var points []func(Options) (AblCapacityRow, error)
	for n := 1; n <= 6; n++ {
		points = append(points, func(o Options) (AblCapacityRow, error) {
			s, err := Build(ScenarioConfig{Reporters: n, Seed: o.Seed})
			if err != nil {
				return AblCapacityRow{}, err
			}
			s.RunMeasured(o)
			worst := 0.0
			for _, app := range s.Reporters {
				if m := app.Server.Stats().Total.Mean(); m > worst {
					worst = m
				}
			}
			return AblCapacityRow{Apps: n, WorstMean: worst, WithinSLA: worst <= sla}, nil
		})
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblCapacityResult{SLA: sla, Rows: rows}, nil
}
