package experiments

import (
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
// abl-mixedcrit: the memory-bandwidth third dimension (DimMemBW) on a
// mixed-criticality host.
//
// One worker host carries a critical closed-loop trading tenant next to a
// best-effort bulk mover whose requests drag memory traffic: every request
// the bulk server completes meters MemBytesPerReq bytes into the host's
// ResEx memory-bandwidth ledger (resex.Manager.SetMemMeter — cumulative
// 4 KiB units, book-settled against the DimMemBW entitlement). The sweep
// drives the bulk tenant's memory intensity from half the host's budget to
// double it, under two economies:
//
//   - "priced":   Fungible with Exchange.Capacity[DimMemBW] > 0 — the
//     board quotes a membw price from demand vs capacity, the book settles
//     cross-dimension trades in all three dimensions, and the pace rule
//     extends to membw overdrafts: a bulk mover spending memory bandwidth
//     ahead of its pace at an enforce-level price gets the same VCPU cap a
//     fabric overdraft earns. Capping it closes the loop — served requests
//     drop, so its metered membw spend drops with them.
//   - "blind":    the identical Fungible economy with the membw capacity
//     left at zero — the exact two-dimension ledger every other experiment
//     runs. Metered units are still observed per tick but never spent, so
//     the rows are flat across the pressure axis (memory intensity is pure
//     accounting until a policy prices it; the zero-demand no-op is pinned
//     byte-exactly by the metamorphic test in internal/invariant/prop).
//
// The table's SLO column is the critical tenant's time-weighted attainment;
// the membw price and trade columns show the third dimension's economy
// engaging as pressure crosses capacity.
// ---------------------------------------------------------------------------

// mixedCritLinkBW is the host's fabric uplink.
const mixedCritLinkBW = 1e9

// mixedCritMemBps is the host's memory-bandwidth budget in bytes/second;
// the Fungible capacity is this expressed in 4 KiB units per 250 ms epoch.
const mixedCritMemBps = 400e6

// mixedCritBulkRate is the bulk mover's Poisson arrival rate (req/s) and
// mixedCritBulkBuffer its request size: ~72 MB/s of fabric — well inside
// the bulk tenant's fabric entitlement, so the memory axis is the *only*
// overdraft in the experiment and the priced-vs-blind contrast isolates
// DimMemBW enforcement.
const (
	mixedCritBulkRate   = 280.0
	mixedCritBulkBuffer = 256 << 10
)

// AblMixedCritRow is one (memory pressure, economy) cell.
type AblMixedCritRow struct {
	// PressPct is the bulk tenant's offered memory traffic as a percent of
	// the host's membw budget.
	PressPct int `col:"mem%,%-6d,mem_press_pct"`
	// Mode is "priced" (three-dimension economy) or "blind" (membw
	// unpriced, the exact two-dimension ledger).
	Mode string `col:"mode,%-7s,mode"`
	// LatP99 and AttainPct are the critical tenant's p99 (µs) and
	// time-weighted SLO attainment.
	LatP99    float64 `col:"lat p99(µs),%12.0f,lat_p99_us"`
	AttainPct float64 `col:"SLO(%),%9.1f,slo_attain_pct"`
	// BulkMBps is the bulk mover's goodput; BulkCapPct its final VCPU cap
	// (100 = never throttled).
	BulkMBps   float64 `col:"bulk(MB/s),%11.1f,bulk_mbps"`
	BulkCapPct float64 `col:"cap(%),%8.0f,bulk_cap_pct"`
	// Trades counts epoch-settlement trades on the host's book; MemPrice is
	// the board's final membw quote (1 = base, uncongested or unpriced).
	Trades   int64   `col:"trades,%7d,trades"`
	MemPrice float64 `col:"mem price,%10.2f,mem_price"`
}

// AblMixedCritResult is the pressure × economy table.
type AblMixedCritResult struct {
	Rows []AblMixedCritRow
}

// Title implements Result.
func (r *AblMixedCritResult) Title() string {
	return "MixedCrit: memory-bandwidth dimension on a mixed-criticality host"
}

// WriteText implements Result.
func (r *AblMixedCritResult) WriteText(w io.Writer) error { return writeTable(w, r.Title(), r.Rows) }

// WriteCSV implements Result.
func (r *AblMixedCritResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// runMixedCritCell runs one (pressure, economy) cell.
func runMixedCritCell(o Options, pressPct int, priced bool) (AblMixedCritRow, error) {
	mode := "blind"
	if priced {
		mode = "priced"
	}
	// Capacities per 250 ms epoch: the link's MTUs (as in abl-fungible) and
	// the memory budget's 4 KiB units.
	fabCap := float64(mixedCritLinkBW) * 0.25 / 1024
	memCap := float64(mixedCritMemBps) * 0.25 / 4096
	mkPolicy := func() resex.Policy {
		p := resex.NewFungible()
		p.Exchange.Capacity[exchange.DimFabric] = resos.Amount(fabCap)
		p.Exchange.Board.Alpha = 0.7
		if priced {
			p.Exchange.Capacity[exchange.DimMemBW] = resos.Amount(memCap)
		}
		return p
	}
	e := workload.New(workload.Config{
		Hosts:         1,
		ClientPCPUs:   16,
		LinkBandwidth: mixedCritLinkBW,
		Policy:        mkPolicy,
	})
	// The critical tenant is the catalog's latency tenant at a 3:1 share,
	// with its own memory traffic: one page per request — well inside its
	// entitlement at every pressure point. Seeds key off o.Seed (not
	// PointSeed) so every cell drives the identical arrival stream: the
	// blind rows then read identically down the pressure axis — memory
	// intensity is pure accounting until a policy prices it — and the
	// priced rows isolate the enforcement.
	critSpec := workload.LatencyTenant("crit", o.Seed+1)
	critSpec.Share = 3
	critSpec.MemBytesPerReq = 4 << 10
	crit, err := e.AddTenant(critSpec)
	if err != nil {
		return AblMixedCritRow{}, err
	}
	// The bulk mover's memory intensity delivers pressPct percent of the
	// host budget at its fixed arrival rate.
	perReq := int(float64(pressPct) / 100 * mixedCritMemBps / mixedCritBulkRate)
	bulk, err := e.AddTenant(workload.TenantSpec{
		Name:           "bulk",
		BufferSize:     mixedCritBulkBuffer,
		Arrivals:       &benchex.Poisson{Rate: mixedCritBulkRate},
		Window:         16,
		ProcessTime:    2 * sim.Millisecond,
		PipelineServer: true,
		MemBytesPerReq: perReq,
		Seed:           o.Seed + 100,
	})
	if err != nil {
		return AblMixedCritRow{}, err
	}
	stopAudit := o.observe(e.TB.Eng, snapshot.ForWorkload(e))
	e.RunMeasured(o.Warmup, o.Duration)
	stopAudit()

	row := AblMixedCritRow{PressPct: pressPct, Mode: mode, MemPrice: 1, BulkCapPct: 100}
	cs := crit.Stats()
	row.LatP99 = cs.P99
	row.AttainPct = cs.AttainPct
	row.BulkMBps = bulk.Stats().CompletedPerSec * float64(mixedCritBulkBuffer) / 1e6
	for _, mvm := range e.Mgrs[0].VMs() {
		if mvm.Dom.Name() == bulk.Spec.Name+"-server-vm" {
			row.BulkCapPct = mvm.Cap()
		}
	}
	if books := resex.Books(e.Mgrs); len(books) > 0 {
		for _, bk := range books {
			row.Trades += bk.TradeCount()
		}
		row.MemPrice = books[0].Board().Price(exchange.DimMemBW)
		if row.MemPrice < 1 {
			row.MemPrice = 1
		}
	}
	return row, nil
}

// AblMixedCrit runs the memory-pressure × economy sweep.
func AblMixedCrit(o Options) (*AblMixedCritResult, error) {
	o = o.WithDefaults()
	// Steady state, as in abl-fungible: the economy settles per 250 ms
	// epoch.
	if o.Warmup < 500*sim.Millisecond {
		o.Warmup = 500 * sim.Millisecond
	}
	var points []func(Options) (AblMixedCritRow, error)
	for _, press := range []int{25, 50, 100, 200} {
		for _, priced := range []bool{true, false} {
			points = append(points, func(o Options) (AblMixedCritRow, error) {
				return runMixedCritCell(o, press, priced)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblMixedCritResult{Rows: rows}, nil
}
