package trace

import "resex/internal/sim"

// Instrument is one tradable option series in the synthetic universe.
type Instrument struct {
	ID     uint32
	Spot   float64
	Strike float64
	Vol    float64
	Expiry float64
}

// Mix weights for request types: an order-gateway-like mix.
const (
	MixNewOrder = 55
	MixCancel   = 15
	MixQuote    = 20
	MixFeed     = 10
)

// RiskFreeRate is the rate stamped on options.
const RiskFreeRate = 0.03

// Symbols is the instrument universe size.
const Symbols = 64

// Generator produces the request stream. It is deterministic given a seed.
type Generator struct {
	rng  *sim.Rand
	univ []Instrument
	seq  uint64
}

// NewGenerator builds a generator with its own instrument universe.
func NewGenerator(seed int64) *Generator {
	g := &Generator{rng: sim.NewRand(seed)}
	for i := 0; i < Symbols; i++ {
		spot := g.rng.Uniform(20, 500)
		g.univ = append(g.univ, Instrument{
			ID:     uint32(i),
			Spot:   spot,
			Strike: spot * g.rng.Uniform(0.8, 1.2),
			Vol:    g.rng.Uniform(0.1, 0.6),
			Expiry: g.rng.Uniform(0.05, 2.0),
		})
	}
	return g
}

// Universe returns the instrument list.
func (g *Generator) Universe() []Instrument { return g.univ }

// Seq returns how many requests have been generated so far.
func (g *Generator) Seq() uint64 { return g.seq }

// Draws returns the generator RNG's stream position (see sim.Rand.Draws);
// together with Seq it pins the generator's state for replay verification.
func (g *Generator) Draws() uint64 { return g.rng.Draws() }

// Next produces the next request, advancing instrument prices by a small
// random walk so consecutive requests are not identical.
func (g *Generator) Next(now sim.Time) Request {
	g.seq++
	ins := &g.univ[g.rng.Intn(len(g.univ))]
	// Bounded multiplicative random walk keeps prices positive.
	ins.Spot *= 1 + g.rng.Normal(0, 0.001)
	if ins.Spot < 1 {
		ins.Spot = 1
	}
	kind := Call
	if g.rng.Float64() < 0.5 {
		kind = Put
	}
	return Request{
		Seq:      g.seq,
		SentAt:   now,
		Type:     g.pickType(),
		SymbolID: ins.ID,
		Side:     Side(1 + g.rng.Intn(2)),
		Qty:      uint32(1 + g.rng.Intn(1000)),
		Option: Option{
			Kind:   kind,
			Spot:   ins.Spot,
			Strike: ins.Strike,
			Vol:    ins.Vol,
			Expiry: ins.Expiry,
			Rate:   RiskFreeRate,
		},
	}
}

// pickType draws a request type from the mix.
func (g *Generator) pickType() RequestType {
	n := g.rng.Intn(MixNewOrder + MixCancel + MixQuote + MixFeed)
	switch {
	case n < MixNewOrder:
		return NewOrder
	case n < MixNewOrder+MixCancel:
		return CancelOrder
	case n < MixNewOrder+MixCancel+MixQuote:
		return QuoteRequest
	default:
		return FeedRequest
	}
}
