package trace

import (
	"testing"
	"testing/quick"

	"resex/internal/sim"
)

func TestRequestEncodeDecodeRoundTrip(t *testing.T) {
	r := Request{
		Seq:      123456789,
		SentAt:   987654321,
		Type:     QuoteRequest,
		SymbolID: 42,
		Side:     Sell,
		Qty:      999,
		Option: Option{
			Kind: Put, Spot: 101.25, Strike: 99.5,
			Vol: 0.23, Expiry: 1.5, Rate: 0.04,
		},
	}
	b := make([]byte, RequestSize)
	if err := r.Encode(b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestRequestEncodeDecodeProperty(t *testing.T) {
	f := func(seq uint64, sym uint32, qty uint16, spot, strike float64, put bool) bool {
		r := Request{
			Seq: seq, SentAt: 5, Type: NewOrder, SymbolID: sym,
			Side: Buy, Qty: uint32(qty),
			Option: Option{Spot: spot, Strike: strike, Vol: 0.2, Expiry: 1, Rate: 0.01},
		}
		if put {
			r.Option.Kind = Put
		}
		b := make([]byte, RequestSize)
		if r.Encode(b) != nil {
			return false
		}
		got, err := DecodeRequest(b)
		if err != nil {
			return false
		}
		return got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := Response{Seq: 7, SentAt: 100, ServerAt: 300, Status: 1}
	b := make([]byte, ResponseSize)
	if err := r.Encode(b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: %+v vs %+v", got, r)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest(make([]byte, 8)); err != ErrShortBuffer {
		t.Errorf("short request: %v", err)
	}
	if _, err := DecodeResponse(make([]byte, 8)); err != ErrShortBuffer {
		t.Errorf("short response: %v", err)
	}
	if _, err := DecodeRequest(make([]byte, RequestSize)); err != ErrBadMagic {
		t.Errorf("zero request: %v", err)
	}
	if _, err := DecodeResponse(make([]byte, ResponseSize)); err != ErrBadMagic {
		t.Errorf("zero response: %v", err)
	}
	var r Request
	if err := r.Encode(make([]byte, 4)); err != ErrShortBuffer {
		t.Errorf("short encode: %v", err)
	}
	var resp Response
	if err := resp.Encode(make([]byte, 4)); err != ErrShortBuffer {
		t.Errorf("short encode: %v", err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(42)
	b := NewGenerator(42)
	for i := 0; i < 100; i++ {
		ra, rb := a.Next(sim.Time(i)), b.Next(sim.Time(i))
		if ra != rb {
			t.Fatalf("same-seed generators diverged at %d", i)
		}
	}
	c := NewGenerator(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Next(0) != c.Next(0) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorUniverse(t *testing.T) {
	g := NewGenerator(1)
	u := g.Universe()
	if len(u) != Symbols {
		t.Fatalf("universe size %d", len(u))
	}
	for i, ins := range u {
		if ins.ID != uint32(i) || ins.Spot <= 0 || ins.Vol <= 0 || ins.Expiry <= 0 {
			t.Errorf("instrument %d invalid: %+v", i, ins)
		}
	}
}

func TestGeneratedRequestsAreValidAndPriceable(t *testing.T) {
	g := NewGenerator(7)
	for i := 0; i < 1000; i++ {
		r := g.Next(sim.Time(i))
		if r.Seq != uint64(i+1) {
			t.Fatalf("seq %d at %d", r.Seq, i)
		}
		// Black–Scholes is defined only for positive prices, volatility
		// and expiry.
		if o := r.Option; o.Spot <= 0 || o.Strike <= 0 || o.Vol <= 0 || o.Expiry <= 0 {
			t.Fatalf("option outside the pricing domain: %+v", o)
		}
		if k := r.Option.Kind; k != Call && k != Put {
			t.Fatalf("bad option kind %d", k)
		}
		if r.Side != Buy && r.Side != Sell {
			t.Fatalf("bad side %v", r.Side)
		}
		if r.Qty < 1 || r.Qty > 1000 {
			t.Fatalf("bad qty %d", r.Qty)
		}
	}
}

func TestRequestTypeMix(t *testing.T) {
	g := NewGenerator(11)
	counts := map[RequestType]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[g.Next(0).Type]++
	}
	frac := func(rt RequestType) float64 { return float64(counts[rt]) / float64(n) }
	if f := frac(NewOrder); f < 0.5 || f > 0.6 {
		t.Errorf("NewOrder fraction = %.3f, want ~0.55", f)
	}
	if f := frac(CancelOrder); f < 0.10 || f > 0.20 {
		t.Errorf("Cancel fraction = %.3f, want ~0.15", f)
	}
	if f := frac(QuoteRequest); f < 0.15 || f > 0.25 {
		t.Errorf("Quote fraction = %.3f, want ~0.20", f)
	}
	if f := frac(FeedRequest); f < 0.05 || f > 0.15 {
		t.Errorf("Feed fraction = %.3f, want ~0.10", f)
	}
}

func TestRequestTypeStrings(t *testing.T) {
	if NewOrder.String() != "new-order" || CancelOrder.String() != "cancel" ||
		QuoteRequest.String() != "quote" || FeedRequest.String() != "feed" {
		t.Error("type names")
	}
	if RequestType(99).String() != "type(99)" {
		t.Error("unknown type name")
	}
}
