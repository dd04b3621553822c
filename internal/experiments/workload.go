package experiments

import (
	"fmt"
	"io"

	"resex/internal/benchex"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/stats"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-workload: latency vs offered load under FreeMarket vs IOShares.
// abl-workload-mix: mixed tenant classes, SLO attainment per policy.
// abl-workload-burst: burstiness vs tail latency, with and without shedding.
// ---------------------------------------------------------------------------

// workloadCapacity measures one tenant's saturated completion rate (req/s)
// with a closed-loop run: n tenants at concurrency 8 keep their servers
// pegged, so the per-tenant completion rate is the service capacity the
// open-loop sweeps express offered load against. The calibration runs
// serially before the sweep and depends only on (o.Seed, o.Duration), so the
// sweep's output stays byte-identical at any parallelism.
func workloadCapacity(o Options, n int) (float64, error) {
	e := workload.New(workload.Config{Hosts: 1, ClientPCPUs: 8})
	for i := 0; i < n; i++ {
		if _, err := e.AddTenant(workload.TenantSpec{
			Name:   fmt.Sprintf("cal%d", i),
			Closed: workload.ClosedLoop{Concurrency: 8},
			Seed:   o.Seed + int64(i) + 1,
		}); err != nil {
			return 0, err
		}
	}
	dur := o.Duration
	if dur > 400*sim.Millisecond {
		dur = 400 * sim.Millisecond
	}
	stopAudit := o.observe(e.TB.Eng, snapshot.ForWorkload(e))
	e.RunMeasured(o.Warmup, dur)
	stopAudit()
	var sum float64
	for _, t := range e.Tenants() {
		sum += t.Stats().CompletedPerSec
	}
	if sum <= 0 {
		return 0, fmt.Errorf("experiments: capacity calibration completed nothing")
	}
	return sum / float64(n), nil
}

// AblWorkloadRow is one (offered load, policy) cell.
type AblWorkloadRow struct {
	// LoadPct is offered load as a percent of calibrated per-tenant capacity.
	LoadPct int `col:"load%,%-6d,load_pct"`
	// Policy is "freemarket" or "ioshares".
	Policy string `col:"policy,%-11s,policy"`
	// OfferedPerSec and CompletedPerSec aggregate both tenants.
	OfferedPerSec   float64 `col:"offered/s,%10.0f,offered_per_sec"`
	CompletedPerSec float64 `col:"completed/s,%11.0f,completed_per_sec"`
	// P50, P99, P999 are merged-sketch latency quantiles (µs).
	P50  float64 `col:"p50(µs),%9.0f,p50_us"`
	P99  float64 `col:"p99(µs),%9.0f,p99_us"`
	P999 float64 `col:"p999(µs),%9.0f,p999_us"`
	// AttainPct is the mean time-weighted SLO attainment across tenants.
	AttainPct float64 `col:"SLO(%),%8.1f,slo_attain_pct"`
}

// AblWorkloadResult is the open-loop hockey stick: two Poisson tenants sweep
// offered load from light traffic past saturation. Because arrivals are open
// loop, load beyond the knee queues instead of self-throttling, and p99
// latency turns the corner the closed-loop benchex client can never show —
// the defining curve of latency-vs-offered-load studies.
type AblWorkloadResult struct {
	// CapacityPerTenant is the calibrated saturation rate (req/s).
	CapacityPerTenant float64
	Rows              []AblWorkloadRow
}

// Title implements Result.
func (r *AblWorkloadResult) Title() string {
	return "Workload: p99 latency vs offered load (open loop)"
}

// WriteText implements Result.
func (r *AblWorkloadResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (capacity %.0f req/s per tenant)", r.Title(), r.CapacityPerTenant), r.Rows)
}

// WriteCSV implements Result.
func (r *AblWorkloadResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// runWorkloadRow runs one hockey-stick cell: two identical open tenants
// (workload.OpenTenant) on one managed host, each offered loadPct percent of
// the calibrated capacity.
func runWorkloadRow(o Options, perTenant float64, loadPct int, policy string) (AblWorkloadRow, error) {
	mk, err := workload.Policy(policy)
	if err != nil {
		return AblWorkloadRow{}, err
	}
	e := workload.New(workload.Config{Hosts: 1, ClientPCPUs: 8, Policy: mk})
	rate := perTenant * float64(loadPct) / 100
	for i := 0; i < 2; i++ {
		if _, err := e.AddTenant(workload.OpenTenant(fmt.Sprintf("t%d", i), rate, o.PointSeed+int64(i)+1)); err != nil {
			return AblWorkloadRow{}, err
		}
	}
	stopAudit := o.observe(e.TB.Eng, snapshot.ForWorkload(e))
	e.RunMeasured(o.Warmup, o.Duration)
	stopAudit()
	row := AblWorkloadRow{LoadPct: loadPct, Policy: policy}
	merged := stats.NewQuantileSketch(0)
	for _, t := range e.Tenants() {
		st := t.Stats()
		row.OfferedPerSec += st.OfferedPerSec
		row.CompletedPerSec += st.CompletedPerSec
		row.AttainPct += st.AttainPct / float64(len(e.Tenants()))
		merged.Merge(t.Sketch())
	}
	row.P50 = merged.Quantile(0.5)
	row.P99 = merged.Quantile(0.99)
	row.P999 = merged.Quantile(0.999)
	return row, nil
}

// AblWorkload runs the load × policy sweep.
func AblWorkload(o Options) (*AblWorkloadResult, error) {
	o = o.WithDefaults()
	perTenant, err := workloadCapacity(o, 2)
	if err != nil {
		return nil, err
	}
	var points []func(Options) (AblWorkloadRow, error)
	for _, load := range []int{30, 50, 70, 90, 110} {
		for _, policy := range []string{"freemarket", "ioshares"} {
			points = append(points, func(o Options) (AblWorkloadRow, error) {
				return runWorkloadRow(o, perTenant, load, policy)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblWorkloadResult{CapacityPerTenant: perTenant, Rows: rows}, nil
}

// AblWorkloadMixRow is one policy's outcome for the mixed-class scenario.
type AblWorkloadMixRow struct {
	// Policy is "none", "freemarket" or "ioshares".
	Policy string `col:"policy,%-11s,policy"`
	// LatP99 is the latency-sensitive tenant's p99 (µs).
	LatP99 float64 `col:"lat p99(µs),%12.0f,lat_p99_us"`
	// LatAttainPct is its time-weighted SLO attainment.
	LatAttainPct float64 `col:"lat SLO(%),%11.1f,lat_slo_attain_pct"`
	// LatCompletedPerSec is its completion rate.
	LatCompletedPerSec float64 `col:"lat/s,%9.0f,lat_completed_per_sec"`
	// BulkMBps is the bulk tenant's goodput (MB/s).
	BulkMBps float64 `col:"bulk(MB/s),%12.1f,bulk_mbps"`
}

// AblWorkloadMixResult co-locates a latency-sensitive Poisson tenant with a
// bursty 2 MB bulk tenant on one host and compares policies. Unmanaged, the
// bulk bursts serialize the link and blow the latency tenant's windows;
// FreeMarket reprices but oscillates as its reso depletes; IOShares holds the
// bulk tenant to its share and keeps the latency tenant inside its SLO —
// time-weighted attainment is the paper's headline metric here.
type AblWorkloadMixResult struct {
	Rows []AblWorkloadMixRow
}

// Title implements Result.
func (r *AblWorkloadMixResult) Title() string {
	return "Workload: mixed tenant classes, SLO attainment per policy"
}

// WriteText implements Result.
func (r *AblWorkloadMixResult) WriteText(w io.Writer) error { return writeTable(w, r.Title(), r.Rows) }

// WriteCSV implements Result.
func (r *AblWorkloadMixResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// mixedClass is the mixed-class scenario abl-workload-mix and abl-restart
// share: the catalog's latency tenant (workload.LatencyTenant) and bulk
// tenant (workload.BulkTenant) on a single host.
type mixedClass struct {
	e         *workload.Engine
	lat, bulk *workload.Tenant
}

// newMixedClass builds the scenario with every host managed by policy, or
// unmanaged when policy is nil.
func newMixedClass(o Options, policy func() resex.Policy) (*mixedClass, error) {
	e := workload.New(workload.Config{Hosts: 1, ClientPCPUs: 8, Policy: policy})
	lat, err := e.AddTenant(workload.LatencyTenant("lat", o.PointSeed+1))
	if err != nil {
		return nil, err
	}
	bulk, err := e.AddTenant(workload.BulkTenant("bulk", o.PointSeed+999))
	if err != nil {
		return nil, err
	}
	return &mixedClass{e: e, lat: lat, bulk: bulk}, nil
}

// run measures the scenario under o's observers and returns the latency
// tenant's p99 (µs), SLO attainment (%) and completions per second, and the
// bulk tenant's throughput (MB/s).
func (m *mixedClass) run(o Options) (latP99, latAttainPct, latPerSec, bulkMBps float64) {
	stopAudit := o.observe(m.e.TB.Eng, snapshot.ForWorkload(m.e))
	m.e.RunMeasured(o.Warmup, o.Duration)
	stopAudit()
	lst, bst := m.lat.Stats(), m.bulk.Stats()
	return lst.P99, lst.AttainPct, lst.CompletedPerSec, bst.CompletedPerSec * float64(workload.BulkBuffer) / 1e6
}

// runWorkloadMixRow runs one policy cell of the mixed-class scenario.
func runWorkloadMixRow(o Options, policy string) (AblWorkloadMixRow, error) {
	var mk func() resex.Policy // "none" is the unmanaged row here, not Passive
	if policy != "none" {
		var err error
		if mk, err = workload.Policy(policy); err != nil {
			return AblWorkloadMixRow{}, err
		}
	}
	mix, err := newMixedClass(o, mk)
	if err != nil {
		return AblWorkloadMixRow{}, err
	}
	row := AblWorkloadMixRow{Policy: policy}
	row.LatP99, row.LatAttainPct, row.LatCompletedPerSec, row.BulkMBps = mix.run(o)
	return row, nil
}

// AblWorkloadMix runs the policy comparison.
func AblWorkloadMix(o Options) (*AblWorkloadMixResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblWorkloadMixRow, error)
	for _, policy := range []string{"none", "freemarket", "ioshares"} {
		points = append(points, func(o Options) (AblWorkloadMixRow, error) {
			return runWorkloadMixRow(o, policy)
		})
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblWorkloadMixResult{Rows: rows}, nil
}

// AblWorkloadBurstRow is one (burst factor, admission) cell.
type AblWorkloadBurstRow struct {
	// Factor is the burst-to-calm rate ratio; mean rate is held constant.
	Factor int `col:"factor,%-7d,burst_factor"`
	// Admission is the shedding policy's name.
	Admission string `col:"admission,%-14s,admission"`
	// P99 is the admitted requests' p99 latency (µs).
	P99 float64 `col:"p99(µs),%9.0f,p99_us"`
	// AttainPct is time-weighted SLO attainment.
	AttainPct float64 `col:"SLO(%),%8.1f,slo_attain_pct"`
	// ShedPct is the percentage of arrivals shed.
	ShedPct float64 `col:"shed(%),%8.1f,shed_pct"`
}

// AblWorkloadBurstResult holds mean offered load at 65% of capacity and
// sweeps how that load is delivered: factor 1 is (nearly) plain Poisson,
// factor 8 packs the same requests into 10 ms bursts at ~1.9× the mean.
// Without admission control the bursts build queues whose drain time shows up
// directly in p99; a small queue cap sheds the excess at the door and keeps
// the tail flat at the cost of a bounded completion loss — the throughput/
// latency trade the queue cap exists to expose.
type AblWorkloadBurstResult struct {
	// MeanRate is the constant mean offered rate (req/s).
	MeanRate float64
	Rows     []AblWorkloadBurstRow
}

// Title implements Result.
func (r *AblWorkloadBurstResult) Title() string {
	return "Workload: SLO attainment vs burstiness, with and without shedding"
}

// WriteText implements Result.
func (r *AblWorkloadBurstResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (mean %.0f req/s)", r.Title(), r.MeanRate), r.Rows)
}

// WriteCSV implements Result.
func (r *AblWorkloadBurstResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// runWorkloadBurstRow runs one cell: a single tenant whose MMPP2 arrivals
// keep mean rate meanRate while the burst phase runs factor× the calm phase.
func runWorkloadBurstRow(o Options, meanRate float64, factor, queueCap int) (AblWorkloadBurstRow, error) {
	e := workload.New(workload.Config{Hosts: 1, ClientPCPUs: 8})
	// Dwells are 30 ms calm / 10 ms burst, so mean = calm·(0.75 + 0.25·f).
	calm := meanRate / (0.75 + 0.25*float64(factor))
	tn, err := e.AddTenant(workload.TenantSpec{
		Name: "burst",
		Arrivals: &benchex.MMPP2{
			CalmRate: calm, BurstRate: calm * float64(factor),
			CalmDwell: 30 * sim.Millisecond, BurstDwell: 10 * sim.Millisecond,
		},
		Window:   8,
		SLO:      workload.SLOSpec{P99Us: 4 * workload.BaseSLAUs},
		QueueCap: queueCap,
		Seed:     o.PointSeed + 1,
	})
	if err != nil {
		return AblWorkloadBurstRow{}, err
	}
	stopAudit := o.observe(e.TB.Eng, snapshot.ForWorkload(e))
	e.RunMeasured(o.Warmup, o.Duration)
	stopAudit()
	st := tn.Stats()
	row := AblWorkloadBurstRow{
		Factor:    factor,
		Admission: "admit-all",
		P99:       st.P99,
		AttainPct: st.AttainPct,
	}
	if queueCap > 0 {
		row.Admission = fmt.Sprintf("queue-cap(%d)", queueCap)
	}
	if st.Arrivals > 0 {
		row.ShedPct = 100 * float64(st.Shed) / float64(st.Arrivals)
	}
	return row, nil
}

// AblWorkloadBurst runs the burstiness × admission sweep.
func AblWorkloadBurst(o Options) (*AblWorkloadBurstResult, error) {
	o = o.WithDefaults()
	cap, err := workloadCapacity(o, 1)
	if err != nil {
		return nil, err
	}
	meanRate := 0.65 * cap
	var points []func(Options) (AblWorkloadBurstRow, error)
	for _, factor := range []int{1, 2, 4, 8} {
		for _, queueCap := range []int{0, 32} {
			points = append(points, func(o Options) (AblWorkloadBurstRow, error) {
				return runWorkloadBurstRow(o, meanRate, factor, queueCap)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblWorkloadBurstResult{MeanRate: meanRate, Rows: rows}, nil
}
