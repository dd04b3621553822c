package experiments

import (
	"fmt"
	"io"

	"resex/internal/benchex"
	"resex/internal/exchange"
	"resex/internal/resex"
	"resex/internal/resos"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-fungible: the cross-dimension Reso economy (internal/exchange) against
// the paper's pricing families on a heterogeneous fleet.
//
// Two worker hosts with different fabric generations — a full-rate 1 GB/s
// link and a half-rate 500 MB/s link — each carry one latency-sensitive
// closed-loop tenant next to one bursty 2 MB bulk tenant. The sweep drives
// the bulk tenants at 70–95% of their host's link capacity and compares
// latency-SLO attainment under Fungible (congestion-priced entitlement
// pacing), IOShares (reactive latency-blame throttling), and FreeMarket
// (repricing only).
//
// The heterogeneity is what separates the families: the slow host congests
// at half the absolute rate, so a policy that waits for latency elevation
// (IOShares) spends each burst detecting before it throttles, and a policy
// with no throttle at all (FreeMarket) never protects the tenant. Fungible's
// rate board prices the slow fabric as congested the moment demand crowds
// supply, and the pace rule caps the overdrafting bulk spender before the
// victim's windows blow — same actuator, earlier signal.
// ---------------------------------------------------------------------------

// Bulk link-generation split of the heterogeneous fleet.
const (
	fungibleFastBW = 1e9
	fungibleSlowBW = 500e6
)

// AblFungibleRow is one (utilization, policy) cell.
type AblFungibleRow struct {
	// UtilPct is the bulk tenants' offered load as a percent of their
	// host's link capacity.
	UtilPct int `col:"util%,%-6d,util_pct"`
	// Policy is "fungible", "ioshares" or "freemarket".
	Policy string `col:"policy,%-11s,policy"`
	// LatP99 is the latency tenants' merged p99 (µs, worst host).
	LatP99 float64 `col:"lat p99(µs),%12.0f,lat_p99_us"`
	// AttainPct is the mean time-weighted SLO attainment across the
	// latency-sensitive tenants.
	AttainPct float64 `col:"SLO(%),%9.1f,slo_attain_pct"`
	// BulkMBps is the bulk tenants' combined goodput (MB/s).
	BulkMBps float64 `col:"bulk(MB/s),%11.1f,bulk_mbps"`
	// Trades and TradedResos count the epoch-settlement activity across
	// both hosts' books (zero for bookless policies).
	Trades int64 `col:"trades,%7d,trades"`
	// FabricPrice is the slow host's final fabric quote.
	FabricPrice float64 `col:"slow price,%10.2f,slow_fabric_price"`
}

// AblFungibleResult is the fungibility ablation table.
type AblFungibleResult struct {
	Rows []AblFungibleRow
}

// Title implements Result.
func (r *AblFungibleResult) Title() string {
	return "Fungible: SLO attainment vs utilization on a heterogeneous fleet"
}

// WriteText implements Result.
func (r *AblFungibleResult) WriteText(w io.Writer) error { return writeTable(w, r.Title(), r.Rows) }

// WriteCSV implements Result.
func (r *AblFungibleResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// runFungibleCell runs one cell: the two-generation fleet at one bulk
// utilization under one policy.
func runFungibleCell(o Options, utilPct int, policy string) (AblFungibleRow, error) {
	mkPolicy, err := workload.Policy(policy)
	if err != nil {
		return AblFungibleRow{}, err
	}
	if policy == "fungible" {
		// Calibrate each host's board to its own fabric generation: the
		// engine builds policies in worker order, so the closure counts
		// hosts. Capacity is the link's MTUs per 250 ms epoch — utilization
		// and entitlements then reflect what the wire actually carries.
		bws := []float64{fungibleFastBW, fungibleSlowBW}
		next := 0
		mkPolicy = func() resex.Policy {
			p := resex.NewFungible()
			p.Exchange.Capacity[exchange.DimFabric] = resos.Amount(bws[next] * 0.25 / 1024)
			// Quick congestion detection: with 250 ms epochs the default
			// utilization EWMA takes ~4 settlements to register a saturated
			// link; a heavier alpha prices the congestion on the first.
			p.Exchange.Board.Alpha = 0.7
			next++
			return p
		}
	}
	e := workload.New(workload.Config{
		Hosts:          2,
		ClientPCPUs:    16,
		LinkBandwidths: []float64{fungibleFastBW, fungibleSlowBW},
		Policy:         mkPolicy,
	})
	// Tenants round-robin hosts, so the add order interleaves classes:
	// lat0→host1, lat1→host2, bulk0→host1, bulk1→host2.
	// SLAs are priced per hardware class: the half-rate link doubles the
	// 64 KB wire time, so its tenant's SLA and SLO scale by the generation
	// ratio (a flat SLO would be unattainable on the slow host under any
	// policy, flooring every family at the same ceiling).
	var lats, bulks []*workload.Tenant
	for i, bw := range []float64{fungibleFastBW, fungibleSlowBW} {
		gen := fungibleFastBW / bw
		t, err := e.AddTenant(workload.TenantSpec{
			Name:   fmt.Sprintf("lat%d", i),
			Closed: workload.ClosedLoop{Concurrency: 1},
			SLO:    workload.SLOSpec{P99Us: 1.5 * gen * workload.BaseSLAUs},
			SLAUs:  gen * workload.BaseSLAUs,
			// Latency tenants buy the premium tier: a 3:1 entitlement split
			// prices the bulk mover's pace at a quarter of the link, the
			// margin that keeps 2 MB frames from crowding p99 at the SLO
			// line. The weight applies identically under every family.
			Share: 3,
			Seed:  o.PointSeed + int64(i) + 1,
		})
		if err != nil {
			return AblFungibleRow{}, err
		}
		lats = append(lats, t)
	}
	for i, bw := range []float64{fungibleFastBW, fungibleSlowBW} {
		// Offered bulk load is utilPct percent of the host's link, delivered
		// as 4× bursts: mean = calm·(0.75 + 0.25·4) over 30/10 ms dwells.
		mean := float64(utilPct) / 100 * bw / float64(workload.BulkBuffer)
		calm := mean / 1.75
		t, err := e.AddTenant(workload.TenantSpec{
			Name:       fmt.Sprintf("bulk%d", i),
			BufferSize: workload.BulkBuffer,
			Arrivals: &benchex.MMPP2{
				CalmRate: calm, BurstRate: 4 * calm,
				CalmDwell: 30 * sim.Millisecond, BurstDwell: 10 * sim.Millisecond,
			},
			Window:         16,
			ProcessTime:    2 * sim.Millisecond,
			PipelineServer: true,
			Seed:           o.PointSeed + 100 + int64(i),
		})
		if err != nil {
			return AblFungibleRow{}, err
		}
		bulks = append(bulks, t)
	}
	stopAudit := o.observe(e.TB.Eng, snapshot.ForWorkload(e))
	e.RunMeasured(o.Warmup, o.Duration)
	stopAudit()

	row := AblFungibleRow{UtilPct: utilPct, Policy: policy, FabricPrice: 1}
	for _, t := range lats {
		st := t.Stats()
		row.AttainPct += st.AttainPct / float64(len(lats))
		if st.P99 > row.LatP99 {
			row.LatP99 = st.P99
		}
	}
	for _, t := range bulks {
		row.BulkMBps += t.Stats().CompletedPerSec * float64(workload.BulkBuffer) / 1e6
	}
	if books := resex.Books(e.Mgrs); len(books) > 0 {
		for _, bk := range books {
			row.Trades += bk.TradeCount()
		}
		// The slow host is the last worker; its quote is the headline price.
		row.FabricPrice = books[len(books)-1].Board().Price(exchange.DimFabric)
	}
	return row, nil
}

// AblFungible runs the utilization × policy sweep.
func AblFungible(o Options) (*AblFungibleResult, error) {
	o = o.WithDefaults()
	// Measure at steady state for every family: the economy settles per
	// 250 ms epoch, so the default 100 ms warmup would put each policy's
	// convergence transient inside the measured window.
	if o.Warmup < 500*sim.Millisecond {
		o.Warmup = 500 * sim.Millisecond
	}
	var points []func(Options) (AblFungibleRow, error)
	for _, util := range []int{70, 80, 90, 95} {
		for _, policy := range []string{"fungible", "ioshares", "freemarket"} {
			points = append(points, func(o Options) (AblFungibleRow, error) {
				return runFungibleCell(o, util, policy)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblFungibleResult{Rows: rows}, nil
}
