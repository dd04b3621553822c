// Package finance implements the financial processing algorithms the
// BenchEx server runs per request, standing in for the paper's use of
// Ødegaard's C++ finance library [1] (the paper's substitute for ICE's
// proprietary processing codes): Black–Scholes option pricing with Greeks,
// implied volatility solvers, Cox–Ross–Rubinstein binomial trees, and basic
// bond mathematics.
//
// These are real implementations, not stubs: BenchEx requests carry real
// option parameters, the server produces real prices, and tests validate
// them against known values. Their simulated CPU cost is charged to the
// serving VCPU by the benchmark layer.
package finance

import (
	"errors"
	"math"
)

// OptionKind distinguishes calls from puts.
type OptionKind int

// Option kinds.
const (
	Call OptionKind = iota
	Put
)

// String names the option kind.
func (k OptionKind) String() string {
	if k == Call {
		return "call"
	}
	return "put"
}

// Option describes a European option on a non-dividend-paying asset.
type Option struct {
	Kind   OptionKind
	Spot   float64 // current underlying price S
	Strike float64 // strike K
	Rate   float64 // continuously compounded risk-free rate r
	Vol    float64 // volatility sigma (annualized)
	Expiry float64 // time to expiry in years T
}

// ErrBadOption reports non-positive prices, volatility or expiry.
var ErrBadOption = errors.New("finance: option parameters must be positive")

// Valid reports whether the parameters are in the model's domain.
func (o Option) Valid() bool {
	return o.Spot > 0 && o.Strike > 0 && o.Vol > 0 && o.Expiry > 0
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// normPDF is the standard normal density.
func normPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// d1d2 returns the Black–Scholes d1 and d2 terms.
func (o Option) d1d2() (float64, float64) {
	sqrtT := math.Sqrt(o.Expiry)
	d1 := (math.Log(o.Spot/o.Strike) + (o.Rate+o.Vol*o.Vol/2)*o.Expiry) / (o.Vol * sqrtT)
	return d1, d1 - o.Vol*sqrtT
}

// Price returns the Black–Scholes value of the option.
func (o Option) Price() (float64, error) {
	if !o.Valid() {
		return 0, ErrBadOption
	}
	d1, d2 := o.d1d2()
	disc := math.Exp(-o.Rate * o.Expiry)
	if o.Kind == Call {
		return o.Spot*normCDF(d1) - o.Strike*disc*normCDF(d2), nil
	}
	return o.Strike*disc*normCDF(-d2) - o.Spot*normCDF(-d1), nil
}

// Greeks bundles the standard sensitivities.
type Greeks struct {
	Delta float64 // ∂V/∂S
	Gamma float64 // ∂²V/∂S²
	Vega  float64 // ∂V/∂σ
	Theta float64 // ∂V/∂t (per year, value decay)
	Rho   float64 // ∂V/∂r
}

// Greeks returns the option's sensitivities.
func (o Option) Greeks() (Greeks, error) {
	if !o.Valid() {
		return Greeks{}, ErrBadOption
	}
	d1, d2 := o.d1d2()
	sqrtT := math.Sqrt(o.Expiry)
	disc := math.Exp(-o.Rate * o.Expiry)
	g := Greeks{
		Gamma: normPDF(d1) / (o.Spot * o.Vol * sqrtT),
		Vega:  o.Spot * normPDF(d1) * sqrtT,
	}
	if o.Kind == Call {
		g.Delta = normCDF(d1)
		g.Theta = -o.Spot*normPDF(d1)*o.Vol/(2*sqrtT) - o.Rate*o.Strike*disc*normCDF(d2)
		g.Rho = o.Strike * o.Expiry * disc * normCDF(d2)
	} else {
		g.Delta = normCDF(d1) - 1
		g.Theta = -o.Spot*normPDF(d1)*o.Vol/(2*sqrtT) + o.Rate*o.Strike*disc*normCDF(-d2)
		g.Rho = -o.Strike * o.Expiry * disc * normCDF(-d2)
	}
	return g, nil
}

// ErrNoConvergence reports an iterative solver that failed to converge.
var ErrNoConvergence = errors.New("finance: solver did not converge")

// ImpliedVol inverts Black–Scholes for volatility given an observed price,
// using Newton's method with a bisection fallback.
func ImpliedVol(o Option, price float64) (float64, error) {
	if o.Spot <= 0 || o.Strike <= 0 || o.Expiry <= 0 || price <= 0 {
		return 0, ErrBadOption
	}
	// Arbitrage bounds.
	disc := math.Exp(-o.Rate * o.Expiry)
	var intrinsic float64
	if o.Kind == Call {
		intrinsic = math.Max(0, o.Spot-o.Strike*disc)
	} else {
		intrinsic = math.Max(0, o.Strike*disc-o.Spot)
	}
	// Deep in the money, Price() itself can round a few ulps below the
	// bound, so only a shortfall beyond rounding is an arbitrage.
	if price < intrinsic-1e-12*(1+intrinsic) {
		return 0, ErrBadOption
	}
	sigma := 0.3 // starting guess
	for i := 0; i < 64; i++ {
		o.Vol = sigma
		v, err := o.Price()
		if err != nil {
			return 0, err
		}
		diff := v - price
		if math.Abs(diff) < 1e-10 {
			return sigma, nil
		}
		g, _ := o.Greeks()
		if g.Vega < 1e-12 {
			break // flat region: fall back to bisection
		}
		next := sigma - diff/g.Vega
		if next <= 0 || next > 10 {
			break
		}
		sigma = next
	}
	// Bisection on [1e-6, 10].
	lo, hi := 1e-6, 10.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		o.Vol = mid
		v, err := o.Price()
		if err != nil {
			return 0, err
		}
		switch {
		case math.Abs(v-price) < 1e-10:
			return mid, nil
		case v < price:
			lo = mid
		default:
			hi = mid
		}
	}
	if hi-lo < 1e-6 {
		return (lo + hi) / 2, nil
	}
	return 0, ErrNoConvergence
}

// BinomialPrice values the option on a Cox–Ross–Rubinstein tree with n
// steps; american enables early exercise.
func BinomialPrice(o Option, n int, american bool) (float64, error) {
	if !o.Valid() {
		return 0, ErrBadOption
	}
	if n < 1 {
		n = 1
	}
	dt := o.Expiry / float64(n)
	u := math.Exp(o.Vol * math.Sqrt(dt))
	d := 1 / u
	disc := math.Exp(-o.Rate * dt)
	p := (math.Exp(o.Rate*dt) - d) / (u - d)
	if p < 0 || p > 1 {
		return 0, ErrBadOption
	}
	payoff := func(s float64) float64 {
		if o.Kind == Call {
			return math.Max(0, s-o.Strike)
		}
		return math.Max(0, o.Strike-s)
	}
	// Terminal values.
	vals := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		s := o.Spot * math.Pow(u, float64(i)) * math.Pow(d, float64(n-i))
		vals[i] = payoff(s)
	}
	// Backward induction.
	for step := n - 1; step >= 0; step-- {
		for i := 0; i <= step; i++ {
			v := disc * (p*vals[i+1] + (1-p)*vals[i])
			if american {
				s := o.Spot * math.Pow(u, float64(i)) * math.Pow(d, float64(step-i))
				ex := payoff(s)
				if ex > v {
					v = ex
				}
			}
			vals[i] = v
		}
	}
	return vals[0], nil
}
