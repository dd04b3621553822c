package invariant

import (
	"fmt"
	"math"

	"resex/internal/exchange"
	"resex/internal/hca"
	"resex/internal/resex"
	"resex/internal/resos"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/workload"
	"resex/internal/xen"
)

// sampleEvery is the event stride between full predicate passes. The engine
// applies it (SetSampledStepHook masks the step counter, a power-of-two
// test), so an audited run pays one AND+branch per event and the indirect
// hook call only once per stride. One predicate pass touches every watched
// object — a few dozen in the largest scenario — so at this granularity the
// sampled work, not the per-event tax, is the whole audit cost.
const sampleEvery = 1024

// Auditor watches one engine and the simulation objects built on it. It is
// strictly single-threaded (everything runs inside engine events or before
// Run starts), so its own bookkeeping is lock-free; results reach the
// shared Collector only at Close.
//
// The auditor observes; it never schedules. Checks fire from the engine's
// sampled step hook — every sampleEvery events the clock-order predicate
// and a full pass over every watched object — and from ResEx epoch
// observers (conservation is re-checked right at each boundary, closing the
// span a Replenish lands in). Clock ordering is therefore a monotonicity
// check across sampled keys, not per-event; the per-event pop-order promise
// is pinned separately by the sim package's own hook tests and fuzz target.
// Watched registries are re-enumerated on every pass, so domains, QPs and
// tenants created or destroyed mid-run (live migration) are picked up and
// dropped naturally.
type Auditor struct {
	eng    *sim.Engine
	col    *Collector
	closed bool

	steps0  uint64 // engine step count at attach; events audited = Steps()−steps0
	checks  uint64
	lastAt  sim.Time
	lastSeq uint64

	hvs    []*hvWatch
	hcas   []*hca.HCA
	mgrs   []*resex.Manager
	wls    []*workload.Engine
	books  []*exchange.Book
	scheds []*schedWatch

	// fleetNet accumulates the per-dimension net of every settled trade
	// across all watched books. Each host's report must net to zero on its
	// own; the running fleet-wide sum staying zero is the cross-host half
	// of the conservation predicate.
	fleetNet exchange.Vec

	doms     map[*xen.Domain]*domState
	accts    map[*resos.Account]*acctState
	overruns map[*hca.CQ]int64
	cqScope  map[*hca.CQ]string // cached so clean sampled passes never format
	qpScope  map[*hca.QP]string

	counts map[string]int64
	first  map[vkey]Violation
}

// hvWatch pairs a hypervisor with its per-domain baselines.
type hvWatch struct {
	hv *xen.Hypervisor
}

// schedWatch pairs a shard scheduler with its incremental scan position
// over the committed-bind log.
type schedWatch struct {
	s    *schedshard.Scheduler
	seen int // binds of s.Bound() already scanned
}

// domState is the per-domain baseline from the last predicate pass.
type domState struct {
	consumed  sim.Time
	windowIdx sim.Time
	maxCap    int // loosest effective cap% in force since the last pass
}

// acctState is the per-account ledger baseline from the last pass.
type acctState struct {
	epoch                                        int64
	alloc, balance, charged, forgiven, discarded resos.Amount
}

// New attaches an auditor to the engine, installing its step hook. One
// auditor per engine: a second New on the same engine panics (via
// SetStepHook's shadowing guard) until the first is closed.
func New(eng *sim.Engine, col *Collector) *Auditor {
	a := &Auditor{
		eng:      eng,
		col:      col,
		steps0:   eng.Steps(),
		doms:     make(map[*xen.Domain]*domState),
		accts:    make(map[*resos.Account]*acctState),
		overruns: make(map[*hca.CQ]int64),
		cqScope:  make(map[*hca.CQ]string),
		qpScope:  make(map[*hca.QP]string),
		counts:   make(map[string]int64),
		first:    make(map[vkey]Violation),
	}
	eng.SetSampledStepHook(sampleEvery, a.onStep)
	return a
}

// WatchXen adds a hypervisor: cap duty-cycle and credit-bound checks over
// every domain it hosts, now and in the future.
func (a *Auditor) WatchXen(hv *xen.Hypervisor) {
	a.hvs = append(a.hvs, &hvWatch{hv: hv})
	a.checkXen(a.hvs[len(a.hvs)-1]) // establish baselines + cap observers now
}

// WatchHCA adds an adapter: CQ overrun provenance and QP post/completion
// causality checks.
func (a *Auditor) WatchHCA(h *hca.HCA) { a.hcas = append(a.hcas, h) }

// WatchManager adds a ResEx manager: Reso conservation over every managed
// account, re-checked at each epoch boundary via an epoch observer (which
// runs synchronously inside the manager's own tick — nothing is scheduled).
func (a *Auditor) WatchManager(m *resex.Manager) {
	a.mgrs = append(a.mgrs, m)
	m.ObserveEpoch(func(resex.EpochSummary) {
		if !a.closed {
			a.checkManager(m)
		}
	})
}

// WatchWorkload adds a workload engine: SLO window bookkeeping over every
// tenant.
func (a *Auditor) WatchWorkload(e *workload.Engine) { a.wls = append(a.wls, e) }

// WatchSched adds a shard scheduler: the gang-atomicity predicate. Every
// committed gang must appear in the bind log with exactly GangSize members
// — a gang count in (0, GangSize) means CommitRound published a partial
// scale-set, which the all-or-nothing contract forbids. The log is scanned
// incrementally (new binds since the last pass), and the scheduler's own
// partial counter is cross-checked.
func (a *Auditor) WatchSched(s *schedshard.Scheduler) {
	a.scheds = append(a.scheds, &schedWatch{s: s})
}

// WatchBook adds an exchange trade book: the trade-conservation predicate.
// Every epoch settlement's trades must net to zero per dimension on the
// host (re-verified from the individual trade legs, not the ledger's own
// total), the running fleet-wide sum across all watched books must stay
// zero, quotes must be finite and at least the base price, and settlement
// must never leave a negative entitlement. The report check runs
// synchronously inside the settlement (nothing is scheduled); positions are
// also re-checked on every sampled pass.
func (a *Auditor) WatchBook(bk *exchange.Book) {
	a.books = append(a.books, bk)
	bk.Observe(func(rep exchange.EpochReport) {
		if !a.closed {
			a.checkTrades(bk, rep)
		}
	})
}

// Close runs one final predicate pass, detaches the step hook and cap
// observers, and merges this auditor's tallies into the collector. Safe to
// call more than once.
func (a *Auditor) Close() {
	if a.closed {
		return
	}
	a.sample()
	a.closed = true
	a.eng.SetStepHook(nil)
	for d := range a.doms {
		d.ObserveCap(nil)
	}
	a.col.merge(1, a.eng.Steps()-a.steps0, a.checks, a.counts, a.first)
}

// violate records one predicate failure (or panics in Strict mode).
func (a *Auditor) violate(checker, scope, detail string) {
	v := Violation{Checker: checker, Scope: scope, At: a.eng.Now(), Detail: detail}
	if a.col.mode == Strict {
		panic("invariant: " + v.String())
	}
	a.counts[checker]++
	k := vkey{checker, scope}
	if old, ok := a.first[k]; !ok || v.At < old.At || (v.At == old.At && v.Detail < old.Detail) {
		a.first[k] = v
	}
}

// onStep fires once per sampleEvery events (the engine applies the stride):
// clock/heap ordering across consecutive sampled keys, then a full predicate
// pass. No first-event special case — the zero baseline (0,0) is below every
// real key, since engine sequence numbers start at 1.
func (a *Auditor) onStep(at sim.Time, seq uint64) {
	if at < a.lastAt || (at == a.lastAt && seq <= a.lastSeq) {
		a.violate("clock-order", "engine",
			fmt.Sprintf("pop (at=%d,seq=%d) after (at=%d,seq=%d): heap order broken", at, seq, a.lastAt, a.lastSeq))
	}
	a.lastAt, a.lastSeq = at, seq
	a.sample()
}

// sample runs every registered checker over every watched object.
func (a *Auditor) sample() {
	for _, w := range a.hvs {
		a.checkXen(w)
	}
	for _, h := range a.hcas {
		a.checkHCA(h)
	}
	for _, m := range a.mgrs {
		a.checkManager(m)
	}
	for _, e := range a.wls {
		a.checkWorkload(e)
	}
	for _, bk := range a.books {
		a.checkBook(bk)
	}
	for _, w := range a.scheds {
		a.checkSched(w)
	}
}

// checkSched runs the gang-atomicity predicate over binds committed since
// the last pass. Gangs commit atomically within a single round, so whole
// gangs land in the log between any two passes: a contiguous same-Gang run
// shorter than its GangSize is a violation. The scan never splits a gang
// across passes — the tail is deferred until the run is provably complete
// (a later-keyed or gang-less bind follows it, or the gang reached full
// size).
func (a *Auditor) checkSched(w *schedWatch) {
	a.checks++
	bound := w.s.Bound()
	for w.seen < len(bound) {
		b := bound[w.seen]
		if b.Gang == 0 {
			w.seen++
			continue
		}
		j := w.seen + 1
		for j < len(bound) && bound[j].Gang == b.Gang {
			j++
		}
		n := j - w.seen
		if n < b.GangSize && j == len(bound) {
			return // run may still be mid-append; re-examine next pass
		}
		if n != b.GangSize {
			a.violate("gang-atomicity", fmt.Sprintf("bind %d", b.Key),
				fmt.Sprintf("gang %d committed %d of %d members", b.Gang, n, b.GangSize))
		}
		w.seen = j
	}
	if g := w.s.Gangs(); g.Partial != 0 {
		a.violate("gang-atomicity", "scheduler",
			fmt.Sprintf("scheduler reports %d partially committed gangs", g.Partial))
	}
}

// effCap maps a domain cap to its effective duty-cycle percentage
// (0 = uncapped = the full window).
func effCap(pct int) int {
	if pct <= 0 {
		return 100
	}
	return pct
}

// checkXen verifies, per domain, that CPU time consumed since the last pass
// respects the cap duty cycle, and per VCPU that window credits respect
// their documented bounds.
//
// Predicate: over a span covering k = curWindow-lastWindow+1 cap windows,
// Δconsumed ≤ k·quota(maxCap) + Tick, where maxCap is the loosest cap in
// force at any point in the span (tracked via the SetCap observer) and the
// +Tick tolerance absorbs one grant whose sleep-end charge lands exactly on
// a window boundary and is timestamped in the next window. Credits: grants
// are pre-charged at issuance, so budget ≥ 0 always (the scheduler's
// documented bound is exactly zero); windowUsed ∈ [0, CapPeriod].
func (a *Auditor) checkXen(w *hvWatch) {
	cur := a.eng.Now() / xen.CapPeriod
	for _, d := range w.hv.Domains() {
		a.checks++
		st, ok := a.doms[d]
		if !ok {
			st = &domState{consumed: d.CPUTime(), windowIdx: cur, maxCap: effCap(d.Cap())}
			a.doms[d] = st
			d.ObserveCap(func(old, new int) {
				if e := effCap(new); e > st.maxCap {
					st.maxCap = e
				}
			})
			continue
		}
		delta := d.CPUTime() - st.consumed
		k := int64(cur-st.windowIdx) + 1
		quota := xen.CapPeriod * sim.Time(st.maxCap) / 100
		if bound := sim.Time(k)*quota + xen.Tick; delta > bound {
			a.violate("xen-cap", d.Name(),
				fmt.Sprintf("consumed %d ns over %d windows exceeds cap %d%% bound %d ns", delta, k, st.maxCap, bound))
		}
		for _, v := range d.VCPUs() {
			if v.WindowBudget() < 0 {
				a.violate("xen-cap", d.Name(),
					fmt.Sprintf("vcpu %d window budget %d < 0 (credits below documented bound)", v.ID(), v.WindowBudget()))
			}
			if u := v.WindowUsed(); u < 0 || u > xen.CapPeriod {
				a.violate("xen-cap", d.Name(),
					fmt.Sprintf("vcpu %d windowUsed %d outside [0, %d]", v.ID(), u, xen.CapPeriod))
			}
		}
		st.consumed, st.windowIdx, st.maxCap = d.CPUTime(), cur, effCap(d.Cap())
	}
}

// checkHCA verifies completion causality on every CQ and QP of the adapter:
// completions never outnumber posts, ring occupancy is sane, and a CQ
// overrun only ever follows a fault-injected completion stall (organic
// overruns would mean a consumer bug upstream of every IBMon estimate).
func (a *Auditor) checkHCA(h *hca.HCA) {
	for _, pd := range h.PDs() {
		for _, cq := range pd.CQs() {
			a.checks++
			scope, ok := a.cqScope[cq]
			if !ok {
				scope = fmt.Sprintf("%s/cq%d", h.Name(), cq.CQN())
				a.cqScope[cq] = scope
			}
			if p := cq.Pending(); p < 0 {
				a.violate("hca-causality", scope, fmt.Sprintf("pending %d < 0 (ci ran ahead of pi)", p))
			}
			if ov := cq.Overruns(); ov > a.overruns[cq] {
				if cq.StallEpisodes() == 0 {
					a.violate("hca-overrun", scope,
						fmt.Sprintf("%d overruns on a CQ with no stall episode", ov))
				}
				a.overruns[cq] = ov
			}
		}
		for _, qp := range pd.QPs() {
			a.checks++
			scope, ok := a.qpScope[qp]
			if !ok {
				scope = fmt.Sprintf("%s/qp%d", h.Name(), qp.QPN())
				a.qpScope[qp] = scope
			}
			if qp.CompletedSends() > qp.PostedSends() {
				a.violate("hca-causality", scope,
					fmt.Sprintf("%d send completions for %d posts", qp.CompletedSends(), qp.PostedSends()))
			}
			if qp.CompletedRecvs() > qp.PostedRecvs() {
				a.violate("hca-causality", scope,
					fmt.Sprintf("%d recv completions for %d posted buffers", qp.CompletedRecvs(), qp.PostedRecvs()))
			}
			if av := qp.SQAvailable(); av < 0 || av > qp.SQDepth() {
				a.violate("hca-causality", scope,
					fmt.Sprintf("sq available %d outside [0, %d]", av, qp.SQDepth()))
			}
		}
	}
}

// checkManager verifies the Reso ledger of every managed account against
// the incremental conservation identity
//
//	Δbalance = Δepoch·alloc − Δcharged + Δforgiven − Δdiscarded
//
// which holds exactly (integer Resos) across any mix of charges and
// replenishments while the allocation is constant. When the observed
// allocation changed since the last pass (SetAllocation / reallocation,
// which may also replenish fresh accounts mid-epoch) the span is ambiguous
// and the baseline is rebased instead of checked.
func (a *Auditor) checkManager(m *resex.Manager) {
	for _, vm := range m.VMs() {
		a.checkAccount(vm.Account)
	}
}

// checkAccount applies the conservation identity to one account against its
// baseline from the previous pass, then advances the baseline.
func (a *Auditor) checkAccount(ac *resos.Account) {
	a.checks++
	alloc := ac.Allocation()
	charged := ac.CPUCharged() + ac.IOCharged()
	st, ok := a.accts[ac]
	if ok && alloc == st.alloc {
		lhs := ac.Balance() - st.balance
		rhs := resos.Amount(ac.Epoch()-st.epoch)*alloc -
			(charged - st.charged) +
			(ac.Forgiven() - st.forgiven) -
			(ac.Discarded() - st.discarded)
		if lhs != rhs {
			a.violate("resos-conservation", ac.Name(),
				fmt.Sprintf("Δbalance %d != Δepoch·alloc−Δcharged+Δforgiven−Δdiscarded %d (epoch %d)", lhs, rhs, ac.Epoch()))
		}
	}
	if !ok {
		st = &acctState{}
		a.accts[ac] = st
	}
	st.epoch, st.alloc, st.balance = ac.Epoch(), alloc, ac.Balance()
	st.charged, st.forgiven, st.discarded = charged, ac.Forgiven(), ac.Discarded()
}

// checkTrades verifies one settlement report: the per-dimension net of the
// trade legs is zero for the host and for the running fleet-wide sum, every
// trade is well-formed, and the quotes are sane.
func (a *Auditor) checkTrades(bk *exchange.Book, rep exchange.EpochReport) {
	a.checks++
	// Rebuild per-holder deltas from the individual trade legs.
	deltas := make(map[string]*exchange.Vec, len(bk.Holders()))
	leg := func(name string) *exchange.Vec {
		v := deltas[name]
		if v == nil {
			v = &exchange.Vec{}
			deltas[name] = v
		}
		return v
	}
	for _, tr := range rep.Trades {
		if tr.BuyAmt <= 0 || tr.PayAmt <= 0 {
			a.violate("trade-conservation", tr.Buyer,
				fmt.Sprintf("epoch %d: non-positive trade %d/%d %v<-%v", rep.Epoch, tr.BuyAmt, tr.PayAmt, tr.Buy, tr.Pay))
		}
		if math.IsNaN(tr.Rate) || math.IsInf(tr.Rate, 0) || tr.Rate <= 0 {
			a.violate("trade-conservation", tr.Buyer,
				fmt.Sprintf("epoch %d: bad exchange rate %v", rep.Epoch, tr.Rate))
		}
		// Four legs, two per dimension: buyer receives/pays, seller mirrors.
		b, s := leg(tr.Buyer), leg(tr.Seller)
		b[tr.Buy] += tr.BuyAmt
		b[tr.Pay] -= tr.PayAmt
		s[tr.Buy] -= tr.BuyAmt
		s[tr.Pay] += tr.PayAmt
	}
	// This callback runs synchronously inside CloseEpoch, so each holder's
	// entitlement must be exactly its base grant plus the recorded legs —
	// the report explains every position — and the host's net position
	// (Σ ent−base) must be zero.
	var hostNet exchange.Vec
	for _, h := range bk.Holders() {
		d := leg(h.Name())
		for dim := exchange.Dim(0); dim < exchange.NumDims; dim++ {
			if got, want := h.Entitlement(dim), h.Base(dim)+d[dim]; got != want {
				a.violate("trade-conservation", h.Name(),
					fmt.Sprintf("epoch %d: %v entitlement %d != base %d + trade legs %d", rep.Epoch, dim, got, h.Base(dim), d[dim]))
			}
			hostNet[dim] += h.Entitlement(dim) - h.Base(dim)
		}
	}
	if !hostNet.IsZero() {
		a.violate("trade-conservation", "host",
			fmt.Sprintf("epoch %d: per-dimension trade deltas net %v, want zero", rep.Epoch, hostNet))
	}
	if !rep.Net.IsZero() {
		a.violate("trade-conservation", "host",
			fmt.Sprintf("epoch %d: ledger net %v disagrees with zero", rep.Epoch, rep.Net))
	}
	for d := range hostNet {
		a.fleetNet[d] += hostNet[d]
	}
	if !a.fleetNet.IsZero() {
		a.violate("trade-conservation", "fleet",
			fmt.Sprintf("epoch %d: fleet-wide trade net %v, want zero", rep.Epoch, a.fleetNet))
	}
	for d := exchange.Dim(0); d < exchange.NumDims; d++ {
		if p := rep.Price[d]; math.IsNaN(p) || math.IsInf(p, 0) || p < 1 {
			a.violate("trade-conservation", "board",
				fmt.Sprintf("epoch %d: %v priced %v (want finite, >= 1)", rep.Epoch, d, p))
		}
	}
	a.checkBook(bk)
}

// checkBook verifies every holder position on a sampled pass: settlement
// must never have left a negative entitlement, and spend only accumulates.
func (a *Auditor) checkBook(bk *exchange.Book) {
	for _, h := range bk.Holders() {
		a.checks++
		for d := exchange.Dim(0); d < exchange.NumDims; d++ {
			if h.Entitlement(d) < 0 {
				a.violate("trade-conservation", h.Name(),
					fmt.Sprintf("negative %v entitlement %d after settlement", d, h.Entitlement(d)))
			}
			if h.Spent(d) < 0 {
				a.violate("trade-conservation", h.Name(),
					fmt.Sprintf("negative %v spend %d", d, h.Spent(d)))
			}
		}
	}
}

// checkWorkload verifies each tenant's SLO window bookkeeping: every scored
// window lands in exactly one bucket, so attained+violated must equal the
// scored span lastEval−origin, and the tracker can never have scored past
// the present.
func (a *Auditor) checkWorkload(e *workload.Engine) {
	now := a.eng.Now()
	for _, t := range e.Tenants() {
		a.checks++
		attained, violated, origin, lastEval := t.SLOAudit()
		if attained+violated != lastEval-origin {
			a.violate("slo-bookkeeping", t.Spec.Name,
				fmt.Sprintf("attained %d + violated %d != scored span %d", attained, violated, lastEval-origin))
		}
		if lastEval > now {
			a.violate("slo-bookkeeping", t.Spec.Name,
				fmt.Sprintf("lastEval %d ahead of now %d", lastEval, now))
		}
	}
}
