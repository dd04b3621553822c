// Package exchange implements the fungible Reso economy: Resos become
// tradable across resource *dimensions* (CPU, fabric) at exchange rates set
// by congestion on each host.
//
// The pieces:
//
//   - RateBoard: one per host. It folds per-dimension utilization observed
//     at each ResEx epoch boundary into an EWMA and quotes a convex price
//     per dimension — near-idle capacity costs the base price, congested
//     capacity grows steeply more expensive (QuotePrice). Cross-dimension
//     exchange rates are price ratios.
//   - Book: one per host. It tracks each VM's per-dimension entitlement
//     and spend, and at every epoch boundary matches buyers short in one
//     dimension with sellers long in it, settling trades at the quoted
//     rate with a double-entry ledger. Every trade moves equal amounts
//     within each dimension between two parties, so per-dimension deltas
//     net to zero per host — and therefore fleet-wide — by construction;
//     internal/invariant re-verifies this from the trade legs.
//
// Pricing policies that keep a book expose it through BookKeeper, which
// is how the daemon, the auditor and snapshots find the books.
//
// Everything here is deterministic plain data: no clocks, no maps iterated,
// no randomness. The same observation sequence produces byte-identical
// quotes, trades, and checkpoints at any worker count.
package exchange

import (
	"fmt"
	"math"

	"resex/internal/resos"
)

// Dim is a resource dimension traded on the exchange.
type Dim int

const (
	// DimCPU is compute entitlement: Resos charged for CPU-percent.
	DimCPU Dim = iota
	// DimFabric is fabric entitlement: Resos charged for MTUs sent.
	DimFabric
	// DimMemBW is memory-bandwidth entitlement, per H-MBR (PAPERS.md):
	// Resos charged for 4 KiB memory-traffic units. The dimension is a
	// strict no-op while no holder demands it — a fleet with zero DimMemBW
	// spend settles byte-identically to a two-dimension fleet, because an
	// undemanded dimension is neither bought nor accepted as tender (see
	// Book.CloseEpoch's demand gate).
	DimMemBW
	// NumDims bounds the dimension space. A further dimension slots in
	// before NumDims; every [NumDims]-sized table in this package scales
	// with it automatically.
	NumDims
)

// String names the dimension for tables and logs.
func (d Dim) String() string {
	switch d {
	case DimCPU:
		return "cpu"
	case DimFabric:
		return "fabric"
	case DimMemBW:
		return "membw"
	default:
		return fmt.Sprintf("dim%d", int(d))
	}
}

// Vec is a per-dimension vector of Reso amounts.
type Vec [NumDims]resos.Amount

// IsZero reports whether every component is zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// BoardConfig parameterizes a RateBoard's price curve.
type BoardConfig struct {
	// Alpha is the EWMA smoothing factor for per-dimension utilization.
	// Default 0.3.
	Alpha float64
	// Beta scales the convex term of the price curve. Default 4.
	Beta float64
	// UMax clamps the pole of the price curve: utilization at or above it
	// prices as UMax congestion (keeps quotes finite). Default 0.95.
	UMax float64
	// MaxPrice clamps quotes. Default 64.
	MaxPrice float64
}

func (c BoardConfig) withDefaults() BoardConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Beta <= 0 {
		c.Beta = 4
	}
	if c.UMax <= 0 || c.UMax >= 1 {
		c.UMax = 0.95
	}
	if c.MaxPrice <= 1 {
		c.MaxPrice = 64
	}
	return c
}

// maxUtil bounds the utilization fed to the curve. Demand can exceed supply
// (overdrafts are charged in full), so pressure above 100% is meaningful —
// but unboundedly so is not.
const maxUtil = 2

// sanitizeUtil maps any float64 into the curve's domain [0, maxUtil].
func sanitizeUtil(u float64) float64 {
	if math.IsNaN(u) || u < 0 {
		return 0
	}
	if u > maxUtil {
		return maxUtil
	}
	return u
}

// QuotePrice is the pure convex price curve: the price in base Resos of one
// Reso of entitlement in a dimension at the given utilization. It is 1 at
// zero utilization, grows as 1 + Beta·u²/(1−min(u, UMax)), and clamps at
// MaxPrice. The result is always finite, at least 1, at most MaxPrice, and
// non-decreasing in utilization for any input (fuzzed: FuzzRateQuote).
func QuotePrice(util float64, cfg BoardConfig) float64 {
	cfg = cfg.withDefaults()
	u := sanitizeUtil(util)
	pole := u
	if pole > cfg.UMax {
		pole = cfg.UMax
	}
	p := 1 + cfg.Beta*u*u/(1-pole)
	if math.IsNaN(p) || p > cfg.MaxPrice {
		p = cfg.MaxPrice
	}
	if p < 1 {
		p = 1
	}
	return p
}

// RateBoard quotes per-dimension prices for one host from congestion
// observed in the ResEx epoch ledger.
type RateBoard struct {
	cfg   BoardConfig
	util  [NumDims]float64 // EWMA of per-dimension utilization
	epoch int64
}

// NewRateBoard creates a board; the zero config takes defaults.
func NewRateBoard(cfg BoardConfig) *RateBoard {
	return &RateBoard{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (b *RateBoard) Config() BoardConfig { return b.cfg }

// Observe folds one epoch's per-dimension utilization (demand/supply; may
// exceed 1 under overdraft pressure) into the board's EWMA.
func (b *RateBoard) Observe(util [NumDims]float64) {
	b.epoch++
	for d := range b.util {
		b.util[d] += b.cfg.Alpha * (sanitizeUtil(util[d]) - b.util[d])
	}
}

// Epoch returns how many observations the board has folded.
func (b *RateBoard) Epoch() int64 { return b.epoch }

// Util returns the smoothed utilization for a dimension.
func (b *RateBoard) Util(d Dim) float64 { return b.util[d] }

// Price quotes the current price of one entitlement Reso in a dimension.
func (b *RateBoard) Price(d Dim) float64 { return QuotePrice(b.util[d], b.cfg) }

// Rate quotes the cross-dimension exchange rate: how many Resos of the pay
// dimension one Reso of the buy dimension costs. Buying into congestion
// with slack is expensive; the reverse is cheap. Always finite and
// positive, bounded by [1/MaxPrice, MaxPrice].
func (b *RateBoard) Rate(buy, pay Dim) float64 {
	return b.Price(buy) / b.Price(pay)
}
