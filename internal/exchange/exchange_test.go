package exchange

import (
	"math"
	"reflect"
	"testing"

	"resex/internal/resos"
)

func TestQuotePriceBoundsAndMonotonicity(t *testing.T) {
	cfg := BoardConfig{}.withDefaults()
	prev := 0.0
	for u := -0.5; u <= 3; u += 0.01 {
		p := QuotePrice(u, cfg)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("QuotePrice(%v) not finite: %v", u, p)
		}
		if p < 1 || p > cfg.MaxPrice {
			t.Fatalf("QuotePrice(%v) = %v outside [1, %v]", u, p, cfg.MaxPrice)
		}
		if p < prev {
			t.Fatalf("QuotePrice not monotone at u=%v: %v < %v", u, p, prev)
		}
		prev = p
	}
	if QuotePrice(0, cfg) != 1 {
		t.Fatalf("idle price = %v, want 1", QuotePrice(0, cfg))
	}
	if QuotePrice(math.NaN(), cfg) != 1 {
		t.Fatalf("NaN util should price as idle, got %v", QuotePrice(math.NaN(), cfg))
	}
}

func TestRateBoardObserveAndRates(t *testing.T) {
	b := NewRateBoard(BoardConfig{})
	if b.Epoch() != 0 || b.Price(DimCPU) != 1 {
		t.Fatalf("fresh board: epoch %d price %v", b.Epoch(), b.Price(DimCPU))
	}
	for i := 0; i < 50; i++ {
		b.Observe([NumDims]float64{DimCPU: 0.2, DimFabric: 0.9})
	}
	if b.Epoch() != 50 {
		t.Fatalf("epoch = %d, want 50", b.Epoch())
	}
	if cu := b.Util(DimCPU); math.Abs(cu-0.2) > 1e-6 {
		t.Fatalf("cpu util EWMA = %v, want ~0.2", cu)
	}
	if b.Price(DimFabric) <= b.Price(DimCPU) {
		t.Fatalf("congested fabric (%v) should out-price idle cpu (%v)",
			b.Price(DimFabric), b.Price(DimCPU))
	}
	// Buying into congestion costs more than one; the reverse is cheap.
	if r := b.Rate(DimFabric, DimCPU); r <= 1 {
		t.Fatalf("fabric/cpu rate = %v, want > 1", r)
	}
	if r := b.Rate(DimCPU, DimFabric); r >= 1 {
		t.Fatalf("cpu/fabric rate = %v, want < 1", r)
	}
}

// twoSidedBook builds the canonical trading situation: bulk overdrafts
// fabric with a CPU surplus, lat has fabric surplus and little spend.
func twoSidedBook() *Book {
	bk := NewBook(BookConfig{})
	bulk := bk.Join("bulk", Vec{DimCPU: 100_000, DimFabric: 500_000})
	lat := bk.Join("lat", Vec{DimCPU: 100_000, DimFabric: 500_000})
	bk.Spend(bulk, DimCPU, 10_000)
	bk.Spend(bulk, DimFabric, 900_000) // 400k over entitlement
	bk.Spend(lat, DimCPU, 30_000)
	bk.Spend(lat, DimFabric, 20_000)
	return bk
}

func checkBookInvariants(t *testing.T, bk *Book, rep EpochReport, wantBase Vec) {
	t.Helper()
	if !rep.Net.IsZero() {
		t.Fatalf("epoch %d: trade net %v, want zero", rep.Epoch, rep.Net)
	}
	// Rebuild per-holder deltas from the trade legs: the report must exactly
	// explain every position, and the legs must net to zero per dimension.
	deltas := map[string]*Vec{}
	leg := func(name string) *Vec {
		if deltas[name] == nil {
			deltas[name] = &Vec{}
		}
		return deltas[name]
	}
	var total Vec
	for _, tr := range rep.Trades {
		if tr.BuyAmt <= 0 || tr.PayAmt <= 0 {
			t.Fatalf("non-positive trade: %+v", tr)
		}
		if math.IsNaN(tr.Rate) || tr.Rate <= 0 {
			t.Fatalf("bad rate: %+v", tr)
		}
		b, s := leg(tr.Buyer), leg(tr.Seller)
		b[tr.Buy] += tr.BuyAmt
		b[tr.Pay] -= tr.PayAmt
		s[tr.Buy] -= tr.BuyAmt
		s[tr.Pay] += tr.PayAmt
	}
	for _, h := range bk.Holders() {
		d := leg(h.Name())
		for dim := Dim(0); dim < NumDims; dim++ {
			if h.Entitlement(dim) < 0 {
				t.Fatalf("%s overdrafted %v entitlement: %d", h.Name(), dim, h.Entitlement(dim))
			}
			if want := h.Base(dim) + d[dim]; h.Entitlement(dim) != want {
				t.Fatalf("%s %v entitlement %d != base %d + trades %d",
					h.Name(), dim, h.Entitlement(dim), h.Base(dim), d[dim])
			}
			total[dim] += h.Entitlement(dim)
		}
	}
	if total != wantBase {
		t.Fatalf("entitlement total %v, want %v (conservation)", total, wantBase)
	}
}

func TestCloseEpochSettlesAndConserves(t *testing.T) {
	bk := twoSidedBook()
	rep := bk.CloseEpoch()
	base := Vec{DimCPU: 200_000, DimFabric: 1_000_000}
	checkBookInvariants(t, bk, rep, base)
	if len(rep.Trades) == 0 {
		t.Fatal("expected trades between an overdrafted bulk and a long lat")
	}
	bulk := bk.Of("bulk")
	if bulk.Entitlement(DimFabric) <= bulk.Base(DimFabric) {
		t.Fatalf("bulk should have bought fabric entitlement: ent %d base %d",
			bulk.Entitlement(DimFabric), bulk.Base(DimFabric))
	}
	if bulk.Entitlement(DimCPU) >= bulk.Base(DimCPU) {
		t.Fatalf("bulk should have paid with cpu entitlement: ent %d base %d",
			bulk.Entitlement(DimCPU), bulk.Base(DimCPU))
	}
	if rep.Util[DimFabric] <= rep.Util[DimCPU] {
		t.Fatalf("fabric util %v should exceed cpu util %v", rep.Util[DimFabric], rep.Util[DimCPU])
	}
	if bk.TradeCount() != int64(len(rep.Trades)) {
		t.Fatalf("trade count %d != %d", bk.TradeCount(), len(rep.Trades))
	}
}

func TestCloseEpochDeterministic(t *testing.T) {
	run := func() []State {
		bk := twoSidedBook()
		var sts []State
		for e := 0; e < 5; e++ {
			bk.CloseEpoch()
			bk.Spend(bk.Of("bulk"), DimFabric, 800_000)
			bk.Spend(bk.Of("lat"), DimCPU, 40_000)
			sts = append(sts, bk.Checkpoint())
		}
		return sts
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different checkpoints")
	}
}

func TestCheckpointIsPure(t *testing.T) {
	bk := twoSidedBook()
	bk.CloseEpoch()
	s1 := bk.Checkpoint()
	s2 := bk.Checkpoint()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("back-to-back checkpoints differ")
	}
	// Checkpointing must not perturb the run: settle again and compare to a
	// fresh book driven identically without the mid-run checkpoints.
	bk.Spend(bk.Of("bulk"), DimFabric, 100_000)
	after := bk.CloseEpoch()

	ref := twoSidedBook()
	ref.CloseEpoch()
	ref.Spend(ref.Of("bulk"), DimFabric, 100_000)
	refAfter := ref.CloseEpoch()
	if !reflect.DeepEqual(after, refAfter) {
		t.Fatal("checkpoint perturbed the settlement stream")
	}
}

func TestSetBaseMidEpochIsNotATrade(t *testing.T) {
	bk := NewBook(BookConfig{})
	h := bk.Join("vm", Vec{DimCPU: 1000, DimFabric: 1000})
	bk.Spend(h, DimFabric, 500)
	bk.SetBase(h, Vec{DimCPU: 1000, DimFabric: 2000})
	if h.Entitlement(DimFabric) != 2000 {
		t.Fatalf("ent = %d, want 2000", h.Entitlement(DimFabric))
	}
	rep := bk.CloseEpoch()
	if len(rep.Trades) != 0 {
		t.Fatalf("reallocation must not settle trades, got %d", len(rep.Trades))
	}
}

func TestJoinLeave(t *testing.T) {
	bk := NewBook(BookConfig{})
	bk.Join("a", Vec{DimCPU: 1})
	h := bk.Join("a", Vec{DimCPU: 2})
	if len(bk.Holders()) != 1 || h.Base(DimCPU) != 2 {
		t.Fatalf("re-join should refresh, got %d holders base %d", len(bk.Holders()), h.Base(DimCPU))
	}
	bk.Leave("a")
	if bk.Of("a") != nil || len(bk.Holders()) != 0 {
		t.Fatal("leave did not drop the holder")
	}
	bk.Leave("missing") // no-op
}

func TestVecIsZero(t *testing.T) {
	if !(Vec{}).IsZero() {
		t.Fatal("zero Vec not zero")
	}
	if (Vec{DimFabric: resos.Amount(1)}).IsZero() {
		t.Fatal("non-zero Vec reported zero")
	}
}

func TestDimString(t *testing.T) {
	if DimCPU.String() != "cpu" || DimFabric.String() != "fabric" {
		t.Fatal("dim names changed")
	}
	if Dim(9).String() != "dim9" {
		t.Fatalf("unknown dim name: %s", Dim(9).String())
	}
}
