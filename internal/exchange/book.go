package exchange

import (
	"math"

	"resex/internal/resos"
)

// The trade book's fixed market rules.
const (
	// Reserve is the fraction of an unspent surplus a holder keeps off the
	// market at the price floor (headroom against its own demand growing).
	// The kept fraction scales with the dimension's price — min(1,
	// Reserve·price) — so sellers hoard as congestion prices the asset:
	// under slack, surplus trades freely; under real scarcity the market
	// dries up and an overdrafted spender cannot buy its overdraft legal,
	// leaving it exposed to the policy's pace enforcement.
	Reserve = 0.25
	// MinTrade is the smallest entitlement block worth trading; smaller
	// deficits and offers are ignored.
	MinTrade resos.Amount = 64
)

// BookConfig parameterizes a host's trade book.
type BookConfig struct {
	// Board configures the host's rate board.
	Board BoardConfig
	// Capacity optionally pins a dimension's utilization reference to the
	// host's physical per-epoch capacity (e.g. link bytes per epoch in
	// MTUs). Zero entries fall back to the holders' total base grant —
	// correct when grants are calibrated to the hardware, misleading when
	// the economy is provisioned above it (demand then never registers as
	// congestion no matter how saturated the real link is).
	Capacity Vec
}

func (c BookConfig) withDefaults() BookConfig {
	c.Board = c.Board.withDefaults()
	return c
}

// Holder is one VM's position on a host's book: its per-dimension base
// grant, the effective entitlement for the current epoch (base adjusted by
// settled trades), and the spend charged against it so far.
type Holder struct {
	name   string
	base   Vec // per-epoch grant
	ent    Vec // effective entitlement this epoch
	spent  Vec // spend charged this epoch
	bought Vec // cumulative entitlement bought
	sold   Vec // cumulative entitlement sold
}

// Name returns the holder's label (the VM name).
func (h *Holder) Name() string { return h.name }

// Base returns the per-epoch grant for a dimension.
func (h *Holder) Base(d Dim) resos.Amount { return h.base[d] }

// Entitlement returns the effective entitlement for a dimension this epoch.
func (h *Holder) Entitlement(d Dim) resos.Amount { return h.ent[d] }

// Spent returns the spend charged against a dimension this epoch.
func (h *Holder) Spent(d Dim) resos.Amount { return h.spent[d] }

// Trade is one settled cross-dimension exchange: the buyer acquires BuyAmt
// entitlement Resos in Buy and pays PayAmt entitlement Resos in Pay to the
// seller at the quoted Rate (= PayAmt/BuyAmt before rounding). Each trade
// moves equal amounts within each dimension between the two parties, so its
// per-dimension net is zero.
type Trade struct {
	Buyer, Seller  string
	Buy, Pay       Dim
	BuyAmt, PayAmt resos.Amount
	Rate           float64
}

// EpochReport is the book's per-epoch settlement digest: what the board was
// fed, the post-observation quotes, every settled trade, and the ledger's
// per-dimension net across all trade legs (zero iff conservation holds —
// internal/invariant recomputes it independently).
type EpochReport struct {
	Epoch  int64
	Util   [NumDims]float64
	Price  [NumDims]float64
	Trades []Trade
	Net    Vec
}

// BookKeeper is implemented by pricing policies that keep a per-host trade
// book (resex.Fungible). Fleet code, the invariant auditor, snapshots and
// live views discover books through this interface instead of importing the
// policy package.
type BookKeeper interface {
	Book() *Book
}

// Book is one host's double-entry trade book.
type Book struct {
	cfg     BookConfig
	board   *RateBoard
	holders []*Holder // registration order; all matching iterates this
	epoch   int64
	trades  int64
	volume  Vec // cumulative gross entitlement moved per dimension
	obs     []func(EpochReport)
}

// NewBook creates a book; the zero config takes defaults.
func NewBook(cfg BookConfig) *Book {
	cfg = cfg.withDefaults()
	return &Book{cfg: cfg, board: NewRateBoard(cfg.Board)}
}

// Config returns the effective configuration.
func (bk *Book) Config() BookConfig { return bk.cfg }

// Board returns the host's rate board.
func (bk *Book) Board() *RateBoard { return bk.board }

// Epoch returns how many settlements have run.
func (bk *Book) Epoch() int64 { return bk.epoch }

// TradeCount returns the cumulative number of settled trades.
func (bk *Book) TradeCount() int64 { return bk.trades }

// Holders returns the holders in registration order.
func (bk *Book) Holders() []*Holder { return bk.holders }

// Of returns the holder with the given name, or nil.
func (bk *Book) Of(name string) *Holder {
	for _, h := range bk.holders {
		if h.name == name {
			return h
		}
	}
	return nil
}

// Join registers a holder with the given per-epoch grant, starting the
// current epoch fully entitled. Joining an existing name returns the
// existing holder with its grant refreshed.
func (bk *Book) Join(name string, base Vec) *Holder {
	if h := bk.Of(name); h != nil {
		bk.SetBase(h, base)
		return h
	}
	h := &Holder{name: name, base: base, ent: base}
	bk.holders = append(bk.holders, h)
	return h
}

// SetBase refreshes a holder's per-epoch grant. The effective entitlement
// adjusts by the same delta immediately so a mid-epoch reallocation is not
// read as a trade.
func (bk *Book) SetBase(h *Holder, base Vec) {
	for d := range base {
		h.ent[d] += base[d] - h.base[d]
		if h.ent[d] < 0 {
			h.ent[d] = 0
		}
		h.base[d] = base[d]
	}
}

// Leave drops a holder from the book (VM unmanaged or migrated away).
func (bk *Book) Leave(name string) {
	for i, h := range bk.holders {
		if h.name == name {
			bk.holders = append(bk.holders[:i], bk.holders[i+1:]...)
			return
		}
	}
}

// Spend charges amt against a holder's dimension. Spending past the
// entitlement is allowed (enforcement caps, it does not block); the
// overdraft shows up as negative Headroom and as demand pressure at the
// next settlement.
func (bk *Book) Spend(h *Holder, d Dim, amt resos.Amount) {
	if amt <= 0 {
		return
	}
	h.spent[d] += amt
}

// Observe registers an epoch-report observer (auditor, market, UIs).
func (bk *Book) Observe(fn func(EpochReport)) { bk.obs = append(bk.obs, fn) }

// CloseEpoch settles the epoch that just ended: it feeds demand/supply
// utilization to the rate board, resets entitlements to the base grants,
// and then matches holders short in one dimension (last epoch's spend is
// the demand forecast) with holders long in it, at the quoted rate, never
// overdrafting either side. Deterministic: holders are scanned in
// registration order, dimension pairs in fixed order.
func (bk *Book) CloseEpoch() EpochReport {
	bk.epoch++
	rep := EpochReport{Epoch: bk.epoch}

	var demand, supply Vec
	for _, h := range bk.holders {
		for d := range demand {
			demand[d] += h.spent[d]
			supply[d] += h.base[d]
		}
	}
	for d := range rep.Util {
		ref := supply[d]
		if bk.cfg.Capacity[d] > 0 {
			ref = bk.cfg.Capacity[d]
		}
		if ref > 0 {
			rep.Util[d] = float64(demand[d]) / float64(ref)
		}
	}
	bk.board.Observe(rep.Util)
	for d := Dim(0); d < NumDims; d++ {
		rep.Price[d] = bk.board.Price(d)
	}

	// Per-holder positions for the new epoch: entitlements reset to base,
	// the finished epoch's spend becomes the demand forecast. A deficit in
	// a dimension wants buying; a surplus (less the reserve) is sellable.
	type position struct {
		h        *Holder
		deficit  Vec
		sellable Vec
	}
	pos := make([]position, len(bk.holders))
	for i, h := range bk.holders {
		p := position{h: h}
		for d := range p.deficit {
			diff := h.spent[d] - h.base[d]
			if diff > 0 {
				p.deficit[d] = diff
			} else {
				keepFrac := Reserve * rep.Price[d]
				if keepFrac > 1 {
					keepFrac = 1
				}
				keep := resos.Amount(float64(-diff) * keepFrac)
				p.sellable[d] = -diff - keep
			}
		}
		h.ent = h.base
		h.spent = Vec{}
		pos[i] = p
	}

	// Match each buy/pay dimension pair. A buyer funds the purchase from
	// its own sellable surplus in the pay dimension; quantities are bounded
	// so no entitlement ever goes negative: BuyAmt ≤ floor(budget/rate)
	// keeps ceil(BuyAmt·rate) ≤ budget. The original two-dimension pairs
	// come first, so adding DimMemBW pairs after them cannot reorder any
	// trade a two-dimension fleet would have settled.
	pairs := [...][2]Dim{
		{DimFabric, DimCPU}, {DimCPU, DimFabric},
		{DimMemBW, DimCPU}, {DimCPU, DimMemBW},
		{DimMemBW, DimFabric}, {DimFabric, DimMemBW},
	}
	for _, pair := range pairs {
		buy, pay := pair[0], pair[1]
		// An undemanded dimension is inert: nobody is short in it, and its
		// idle surplus is not accepted as tender. This is what keeps the
		// third dimension a strict byte-level no-op on fleets that never
		// spend it — without the gate, a holder's untouched membw grant
		// would quietly fund CPU/fabric purchases and change settlements.
		if (buy == DimMemBW || pay == DimMemBW) && demand[DimMemBW] == 0 {
			continue
		}
		rate := bk.board.Rate(buy, pay)
		for bi := range pos {
			b := &pos[bi]
			for si := range pos {
				if si == bi {
					continue
				}
				if b.deficit[buy] < MinTrade || b.sellable[pay] < MinTrade {
					break
				}
				s := &pos[si]
				if s.sellable[buy] < MinTrade {
					continue
				}
				budget := resos.Amount(float64(b.sellable[pay]) / rate)
				q := b.deficit[buy]
				if s.sellable[buy] < q {
					q = s.sellable[buy]
				}
				if budget < q {
					q = budget
				}
				if q < MinTrade {
					continue
				}
				payAmt := resos.Amount(math.Ceil(float64(q) * rate))
				if payAmt > b.sellable[pay] {
					payAmt = b.sellable[pay]
				}

				b.h.ent[buy] += q
				b.h.ent[pay] -= payAmt
				b.h.bought[buy] += q
				b.h.sold[pay] += payAmt
				s.h.ent[buy] -= q
				s.h.ent[pay] += payAmt
				s.h.sold[buy] += q
				s.h.bought[pay] += payAmt

				b.deficit[buy] -= q
				b.sellable[pay] -= payAmt
				s.sellable[buy] -= q

				// Double entry: four legs per trade, two per dimension.
				rep.Net[buy] += q      // buyer receives
				rep.Net[buy] -= q      // seller gives
				rep.Net[pay] -= payAmt // buyer pays
				rep.Net[pay] += payAmt // seller receives
				rep.Trades = append(rep.Trades, Trade{
					Buyer: b.h.name, Seller: s.h.name,
					Buy: buy, Pay: pay,
					BuyAmt: q, PayAmt: payAmt,
					Rate: rate,
				})
				bk.trades++
				bk.volume[buy] += q
				bk.volume[pay] += payAmt
			}
		}
	}

	for _, fn := range bk.obs {
		fn(rep)
	}
	return rep
}
