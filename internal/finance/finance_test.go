package finance

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, eps float64) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, eps)
	}
}

// Canonical textbook case: S=100, K=100, r=5%, σ=20%, T=1.
var atm = Option{Kind: Call, Spot: 100, Strike: 100, Rate: 0.05, Vol: 0.2, Expiry: 1}

func TestBlackScholesKnownValues(t *testing.T) {
	c, err := atm.Price()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ATM call", c, 10.4506, 1e-3)

	p := atm
	p.Kind = Put
	pv, err := p.Price()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ATM put", pv, 5.5735, 1e-3)

	// Hull, Options Futures and Other Derivatives: S=42, K=40, r=10%,
	// σ=20%, T=0.5 → call 4.76, put 0.81.
	h := Option{Kind: Call, Spot: 42, Strike: 40, Rate: 0.1, Vol: 0.2, Expiry: 0.5}
	hc, _ := h.Price()
	approx(t, "Hull call", hc, 4.76, 0.01)
	h.Kind = Put
	hp, _ := h.Price()
	approx(t, "Hull put", hp, 0.81, 0.01)
}

func TestPutCallParity(t *testing.T) {
	f := func(s, k, vol, tm uint8) bool {
		o := Option{
			Spot:   10 + float64(s),
			Strike: 10 + float64(k),
			Rate:   0.03,
			Vol:    0.05 + float64(vol)/256,
			Expiry: 0.1 + float64(tm)/64,
		}
		o.Kind = Call
		c, err := o.Price()
		if err != nil {
			return false
		}
		o.Kind = Put
		p, err := o.Price()
		if err != nil {
			return false
		}
		// C - P = S - K·e^{-rT}
		lhs := c - p
		rhs := o.Spot - o.Strike*math.Exp(-o.Rate*o.Expiry)
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPriceInvalidParams(t *testing.T) {
	bad := []Option{
		{Kind: Call, Spot: 0, Strike: 100, Vol: 0.2, Expiry: 1},
		{Kind: Call, Spot: 100, Strike: 0, Vol: 0.2, Expiry: 1},
		{Kind: Call, Spot: 100, Strike: 100, Vol: 0, Expiry: 1},
		{Kind: Call, Spot: 100, Strike: 100, Vol: 0.2, Expiry: 0},
	}
	for i, o := range bad {
		if _, err := o.Price(); err != ErrBadOption {
			t.Errorf("case %d: err = %v", i, err)
		}
		if _, err := o.Greeks(); err != ErrBadOption {
			t.Errorf("case %d greeks: err = %v", i, err)
		}
	}
}

func TestGreeksKnownValues(t *testing.T) {
	g, err := atm.Greeks()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "delta", g.Delta, 0.6368, 1e-3)
	approx(t, "gamma", g.Gamma, 0.01876, 1e-4)
	approx(t, "vega", g.Vega, 37.524, 1e-2)
	approx(t, "rho", g.Rho, 53.232, 1e-2)
	approx(t, "theta", g.Theta, -6.414, 1e-2)

	p := atm
	p.Kind = Put
	gp, _ := p.Greeks()
	approx(t, "put delta", gp.Delta, g.Delta-1, 1e-12)
	approx(t, "put gamma", gp.Gamma, g.Gamma, 1e-12) // gamma is kind-independent
}

func TestGreeksNumericalConsistency(t *testing.T) {
	// Delta and vega agree with central finite differences of Price.
	const h = 1e-4
	for _, kind := range []OptionKind{Call, Put} {
		o := atm
		o.Kind = kind
		g, _ := o.Greeks()

		up, dn := o, o
		up.Spot += h
		dn.Spot -= h
		pu, _ := up.Price()
		pd, _ := dn.Price()
		approx(t, kind.String()+" delta vs FD", g.Delta, (pu-pd)/(2*h), 1e-5)

		up, dn = o, o
		up.Vol += h
		dn.Vol -= h
		pu, _ = up.Price()
		pd, _ = dn.Price()
		approx(t, kind.String()+" vega vs FD", g.Vega, (pu-pd)/(2*h), 1e-4)
	}
}

func TestImpliedVolRoundTrip(t *testing.T) {
	f := func(volByte, kByte uint8, put bool) bool {
		trueVol := 0.05 + float64(volByte)/300.0 // 0.05..0.9
		o := Option{Spot: 100, Strike: 60 + float64(kByte)/2, Rate: 0.02, Vol: trueVol, Expiry: 0.75}
		if put {
			o.Kind = Put
		}
		price, err := o.Price()
		if err != nil || price < 1e-8 {
			return true // deep OTM: numerically untestable, skip
		}
		got, err := ImpliedVol(o, price)
		if err != nil {
			return false
		}
		// Vol-space agreement where vega makes it identifiable; price-space
		// agreement always (deep ITM/OTM options are nearly vol-insensitive,
		// so many vols reproduce the same price).
		g, _ := o.Greeks()
		if g.Vega > 0.05 && math.Abs(got-trueVol) > 1e-3 {
			return false
		}
		o.Vol = got
		re, err := o.Price()
		return err == nil && math.Abs(re-price) < 1e-6*(1+price)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A deep in-the-money put prices at its discounted intrinsic value, and
// Price() can land a few ulps below the bound ImpliedVol checks against.
// That rounding must not be rejected as an arbitrage.
func TestImpliedVolDeepITMAtBound(t *testing.T) {
	o := Option{Kind: Put, Spot: 100, Strike: 180, Rate: 0.02, Vol: 0.05 + 10.0/300, Expiry: 0.75}
	price, err := o.Price()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImpliedVol(o, price)
	if err != nil {
		t.Fatalf("ImpliedVol(%.17g): %v", price, err)
	}
	o.Vol = got
	if re, _ := o.Price(); math.Abs(re-price) > 1e-6*(1+price) {
		t.Fatalf("repriced %.17g, want %.17g", re, price)
	}
}

func TestImpliedVolRejectsArbitrage(t *testing.T) {
	o := Option{Kind: Call, Spot: 100, Strike: 50, Rate: 0.05, Expiry: 1}
	// Below intrinsic value (~52.4): no vol can produce it.
	if _, err := ImpliedVol(o, 10); err == nil {
		t.Error("sub-intrinsic price accepted")
	}
	if _, err := ImpliedVol(o, -1); err == nil {
		t.Error("negative price accepted")
	}
}

func TestBinomialConvergesToBlackScholes(t *testing.T) {
	want, _ := atm.Price()
	got, err := BinomialPrice(atm, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "CRR(1000) vs BS", got, want, 0.02)
}

func TestBinomialAmericanPutPremium(t *testing.T) {
	// American puts are worth at least as much as European ones, strictly
	// more when early exercise has value.
	o := Option{Kind: Put, Spot: 80, Strike: 100, Rate: 0.08, Vol: 0.2, Expiry: 1}
	eu, err := BinomialPrice(o, 500, false)
	if err != nil {
		t.Fatal(err)
	}
	am, err := BinomialPrice(o, 500, true)
	if err != nil {
		t.Fatal(err)
	}
	if am <= eu {
		t.Errorf("american put %v not above european %v", am, eu)
	}
	// Deep ITM american put is worth at least intrinsic.
	if am < 20 {
		t.Errorf("american put %v below intrinsic 20", am)
	}
	// American call without dividends equals European call.
	c := Option{Kind: Call, Spot: 100, Strike: 100, Rate: 0.05, Vol: 0.2, Expiry: 1}
	euc, _ := BinomialPrice(c, 500, false)
	amc, _ := BinomialPrice(c, 500, true)
	approx(t, "american call = european call", amc, euc, 1e-9)
}

func TestBinomialValidation(t *testing.T) {
	if _, err := BinomialPrice(Option{}, 100, false); err != ErrBadOption {
		t.Errorf("invalid option: %v", err)
	}
	// n < 1 clamps rather than failing.
	if _, err := BinomialPrice(atm, 0, false); err != nil {
		t.Errorf("n=0: %v", err)
	}
}

func TestBondPriceKnownValues(t *testing.T) {
	// 5% annual coupon, 3 years, face 100, yield 5% → par.
	b := Bond{Face: 100, Coupon: 0.05, Years: 3}
	p, err := b.Price(0.05)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "par bond", p, 100, 1e-9)
	// Yield above coupon → discount; below → premium.
	disc, _ := b.Price(0.08)
	prem, _ := b.Price(0.02)
	if disc >= 100 || prem <= 100 {
		t.Errorf("discount %v / premium %v around par", disc, prem)
	}
}

func TestBondYieldRoundTrip(t *testing.T) {
	f := func(cByte, yByte uint8, years uint8) bool {
		b := Bond{Face: 100, Coupon: float64(cByte) / 512, Years: 1 + int(years%30)}
		y := float64(yByte) / 512 // 0..0.5
		price, err := b.Price(y)
		if err != nil {
			return false
		}
		got, err := b.Yield(price)
		if err != nil {
			return false
		}
		return math.Abs(got-y) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBondValidation(t *testing.T) {
	if _, err := (Bond{Face: 0, Years: 1}).Price(0.05); err != ErrBadBond {
		t.Error("zero face accepted")
	}
	if _, err := (Bond{Face: 100, Years: 0}).Price(0.05); err != ErrBadBond {
		t.Error("zero years accepted")
	}
	if _, err := (Bond{Face: 100, Years: 1}).Yield(-5); err != ErrBadBond {
		t.Error("negative price accepted")
	}
}

func TestBondDuration(t *testing.T) {
	// Zero-coupon bond duration equals maturity.
	z := Bond{Face: 100, Coupon: 0, Years: 7}
	d, err := z.Duration(0.04)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "zero-coupon duration", d, 7, 1e-9)
	// Coupon bonds have duration below maturity.
	c := Bond{Face: 100, Coupon: 0.06, Years: 7}
	dc, _ := c.Duration(0.04)
	if dc >= 7 || dc <= 0 {
		t.Errorf("coupon bond duration = %v", dc)
	}
}

func TestOptionKindString(t *testing.T) {
	if Call.String() != "call" || Put.String() != "put" {
		t.Error("kind names")
	}
}
