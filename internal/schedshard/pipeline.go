package schedshard

import (
	"fmt"

	"resex/internal/exchange"
)

// FilterPlugin rules hosts in or out for a spec.
type FilterPlugin interface {
	Name() string
	Filter(h *HostInfo, s Spec) bool
}

// ScorePlugin ranks a feasible host for a spec in [0, 1] (higher = better).
type ScorePlugin interface {
	Name() string
	Score(h *HostInfo, s Spec) float64
}

// weightedScorer pairs a scorer with its weight in the pipeline sum.
type weightedScorer struct {
	plugin ScorePlugin
	weight float64
	// key is the plugin's penaltyKey when it is an InterferenceAware, whose
	// score a lane's penaltyMemo with an equal key can serve; zero (which
	// matches no memo) for every other plugin.
	key penaltyKey
}

// Pipeline is the filter → score → bind decision chain.
//
// A Pipeline owns a reusable score-trace scratch buffer, so Select on a
// warmed-up pipeline allocates nothing: the returned trace is valid only
// until the next Select call. One pipeline therefore serves one goroutine;
// give each shard its own (Config.NewPipeline).
type Pipeline struct {
	filters []FilterPlugin
	scorers []weightedScorer
	trace   []HostScore // reused across Select calls
}

// NewPipeline creates an empty pipeline; compose it with AddFilter and
// AddScorer.
func NewPipeline() *Pipeline { return &Pipeline{} }

// AddFilter appends a filter plugin.
func (p *Pipeline) AddFilter(f FilterPlugin) *Pipeline {
	p.filters = append(p.filters, f)
	return p
}

// AddScorer appends a score plugin with the given weight.
func (p *Pipeline) AddScorer(s ScorePlugin, weight float64) *Pipeline {
	ws := weightedScorer{plugin: s, weight: weight}
	if ia, ok := s.(InterferenceAware); ok {
		ws.key = ia.key()
	}
	p.scorers = append(p.scorers, ws)
	return p
}

// penaltyKey returns the key of the pipeline's first InterferenceAware
// scorer: the key a lane arms its penalty memo with. ok is false when the
// pipeline has no such scorer and a memo would serve nothing.
func (p *Pipeline) penaltyKey() (k penaltyKey, ok bool) {
	for i := range p.scorers {
		if k := p.scorers[i].key; k != (penaltyKey{}) {
			return k, true
		}
	}
	return penaltyKey{}, false
}

// HostScore is one host's pipeline outcome, kept for decision logging.
type HostScore struct {
	Node     int
	Feasible bool
	Score    float64
}

// Select runs the pipeline over the host snapshots: hosts failing any
// filter are out; the rest are scored by the weighted sum of all scorers;
// the best score wins, ties broken by lowest node id (deterministic).
// The returned trace covers every candidate, sorted by node id; it aliases
// the pipeline's scratch buffer and is overwritten by the next Select.
func (p *Pipeline) Select(hosts []*HostInfo, s Spec) (*HostInfo, []HostScore, error) {
	var best *HostInfo
	bestScore := 0.0
	if cap(p.trace) < len(hosts) {
		p.trace = make([]HostScore, 0, len(hosts))
	}
	trace := p.trace[:0]
	for _, h := range hosts {
		hs := HostScore{Node: h.Node, Feasible: true}
		for _, f := range p.filters {
			if !f.Filter(h, s) {
				hs.Feasible = false
				break
			}
		}
		if hs.Feasible {
			for _, ws := range p.scorers {
				hs.Score += ws.weight * ws.plugin.Score(h, s)
			}
			if best == nil || hs.Score > bestScore ||
				(hs.Score == bestScore && h.Node < best.Node) {
				best, bestScore = h, hs.Score
			}
		}
		trace = append(trace, hs)
	}
	// Insertion sort by node id: snapshot hosts are already Node-sorted, so
	// this is a single linear pass in the common case — and unlike
	// sort.Slice it allocates nothing (no closure, no reflect swapper).
	for i := 1; i < len(trace); i++ {
		hs := trace[i]
		j := i - 1
		for j >= 0 && trace[j].Node > hs.Node {
			trace[j+1] = trace[j]
			j--
		}
		trace[j+1] = hs
	}
	p.trace = trace
	if best == nil {
		return nil, trace, fmt.Errorf("placement: no feasible host for %q", s.Name)
	}
	return best, trace, nil
}

// pick is the shard-side hot path: same filter → score decision as Select,
// but it returns the winner's index into hosts, keeps no trace, and breaks
// score ties by *rotated* index order — candidate i ranks as (i-off) mod
// len(hosts), lowest rank wins. With off = 0 over a Node-sorted host list
// this is exactly Select's lowest-node tie-break; a per-shard offset makes
// equal-scoring shards start their tie-break at different points of the
// host ring, which is the smart-conflict-avoidance trick: identical
// pipelines stop all herding onto the same host when scores tie. Allocates
// nothing. Returns -1 when no host is feasible.
//
// memo, when non-nil, is a penalty memo over hosts (memo index i is
// hosts[i]). InterferenceAware scorers whose key matches the memo's read
// their host penalty from it instead of walking the host's resident VMs;
// the memo holds the same float the walk sums, so the decision is
// bit-identical to the memo-free path.
//
// A lane with a class-pure pipeline picks from its score cache instead
// (lane.pick); pick is the path for every other pipeline, and the
// reference the cache is tested against.
func (p *Pipeline) pick(hosts []*HostInfo, memo *penaltyMemo, s Spec, off int) int {
	var class penaltyClass
	if memo != nil {
		class = memo.key.class(s)
	}
	w := newWinner(len(hosts), off)
	for i, h := range hosts {
		if score, ok := p.score(i, h, memo, class, s); ok {
			w.offer(i, score)
		}
	}
	return w.best
}

// score is pick's per-host step: whether hosts[i] = h passes every filter
// for s and, if it does, its weighted score. class is s's class under the
// memo's key (ignored without a memo).
func (p *Pipeline) score(i int, h *HostInfo, memo *penaltyMemo, class penaltyClass, s Spec) (float64, bool) {
	for _, f := range p.filters {
		if !f.Filter(h, s) {
			return 0, false
		}
	}
	score := 0.0
	for k := range p.scorers {
		ws := &p.scorers[k]
		if memo != nil && ws.key == memo.key {
			score += ws.weight * interferenceScore(memo.penalty(i, h, class))
		} else {
			score += ws.weight * ws.plugin.Score(h, s)
		}
	}
	return score, true
}

// winner is pick's running choice over candidates 0..n-1: the highest
// score, ties to the lowest rank (i-off) mod n.
type winner struct {
	n, off int
	best   int // -1 until a candidate is offered
	score  float64
	rank   int
}

func newWinner(n, off int) winner { return winner{n: n, off: off, best: -1} }

// offer considers feasible candidate i with the given score.
func (w *winner) offer(i int, score float64) {
	rank := i - w.off
	if rank < 0 {
		rank += w.n
	}
	if w.best < 0 || score > w.score || (score == w.score && rank < w.rank) {
		w.best, w.score, w.rank = i, score, rank
	}
}

// classPure reports whether the pipeline's verdict and score for a host
// depend on the spec only through its variant (see variantOf): every
// filter and scorer is a built-in, and every InterferenceAware scorer
// shares the key a lane arms its memo with. Only a class-pure pipeline may
// use a lane's score cache; a plugin of any other type might read any spec
// field, Name included.
func (p *Pipeline) classPure() bool {
	for _, f := range p.filters {
		switch f.(type) {
		case FitsPCPUs, HealthyHost, MemBWFit:
		default:
			return false
		}
	}
	key, _ := p.penaltyKey()
	for _, ws := range p.scorers {
		switch ws.plugin.(type) {
		case SpreadByCPU, ResoHeadroom, RateWeightedHeadroom:
		case InterferenceAware:
			if ws.key != key {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// variant is what a class-pure pipeline reads of a spec: its penalty class
// under the lane memo's key (classNone without a memo) and whether it
// declares a memory-bandwidth demand, as MemBWFit tests it.
type variant int

const numVariants = 3 * 2

func variantOf(class penaltyClass, s Spec) variant {
	v := variant(class) * 2
	if !(s.MemBytesPerSec <= 0) { // MemBWFit's test, so NaN agrees
		v++
	}
	return v
}

// class is the penalty class v was built from.
func (v variant) class() penaltyClass { return penaltyClass(v / 2) }

// cachedScore is one view host's pipeline outcome for one variant.
type cachedScore struct {
	score float64
	ok    bool // feasible
}

// scoreCache holds a lane's per-round pipeline outcomes: for each variant
// the round has picked for, every view host's filter verdict and score,
// computed by Pipeline.score with the first spec of that variant. It is
// the rest of the per-node summary the penalty memo started: a class-pure
// pipeline scores every spec of a variant alike, so a pick after the
// first is a scan over cached outcomes, and a claim or gang unwind
// re-scores only the hosts it changed (lane.rescore).
type scoreCache struct {
	filled [numVariants]bool
	specs  [numVariants]Spec
	rows   [numVariants][]cachedScore
}

// ---------------------------------------------------------------------------
// Built-in plugins.
// ---------------------------------------------------------------------------

// FitsPCPUs is the capacity filter: a guest needs a dedicated PCPU.
type FitsPCPUs struct{}

// Name implements FilterPlugin.
func (FitsPCPUs) Name() string { return "fits-pcpus" }

// Filter implements FilterPlugin.
func (FitsPCPUs) Filter(h *HostInfo, _ Spec) bool { return h.FreePCPUs > 0 }

// HealthyHost filters out quarantined hosts: binding a VM to a host that
// cannot be observed means ResEx would manage it blind from the first
// interval. Degraded hosts stay schedulable (their stale profiles just score
// worse).
type HealthyHost struct{}

// Name implements FilterPlugin.
func (HealthyHost) Name() string { return "healthy-host" }

// Filter implements FilterPlugin.
func (HealthyHost) Filter(h *HostInfo, _ Spec) bool { return h.Health != HealthQuarantined }

// MemBWFit filters hosts whose memory bandwidth is fully committed, for
// specs that declare a memory-bandwidth demand. Hosts that do not account
// for memory bandwidth (MemBWBytesPerSec == 0) and specs without a demand
// always pass, so the filter is a strict no-op on fleets that do not model
// the dimension. The threshold matches Store.CommitRound's claim check —
// the last reservation may overshoot capacity, but a saturated host admits
// no further membw demand.
type MemBWFit struct{}

// Name implements FilterPlugin.
func (MemBWFit) Name() string { return "membw-fit" }

// Filter implements FilterPlugin.
func (MemBWFit) Filter(h *HostInfo, s Spec) bool {
	if h.MemBWBytesPerSec <= 0 || s.MemBytesPerSec <= 0 {
		return true
	}
	return h.MemBWCommitted < 1
}

// SpreadByCPU scores hosts by free PCPU fraction: the classic
// least-allocated spreading any CPU-only scheduler does.
type SpreadByCPU struct{}

// Name implements ScorePlugin.
func (SpreadByCPU) Name() string { return "spread-by-cpu" }

// Score implements ScorePlugin.
func (SpreadByCPU) Score(h *HostInfo, _ Spec) float64 {
	if h.TotalPCPUs == 0 {
		return 0
	}
	return float64(h.FreePCPUs) / float64(h.TotalPCPUs)
}

// ResoHeadroom scores hosts by how much economic room is left: half
// from the uncommitted uplink fraction (profiled send rates vs capacity),
// half from the mean remaining Reso balance of resident VMs. A host whose
// VMs are burning their allocations flat is a bad landing spot even if
// PCPUs are free.
type ResoHeadroom struct{}

// Name implements ScorePlugin.
func (ResoHeadroom) Name() string { return "reso-headroom" }

// Score implements ScorePlugin.
func (ResoHeadroom) Score(h *HostInfo, _ Spec) float64 {
	free := 1 - h.IOCommitted
	if free < 0 {
		free = 0
	}
	// Accounts can run above their allocation (idle VMs earn); clamp so a
	// freshly placed, still-ramping VM can't make its host look better
	// than an empty one.
	hr := h.ResoHeadroom
	if hr > 1 {
		hr = 1
	}
	return 0.5*free + 0.5*hr
}

// InterferenceAware penalizes the colocations the paper shows are fatal:
// a latency-sensitive VM next to a large-buffer bursty sender. Resident
// pressure is IBMon-profiled (MTUs/s at a large inferred buffer size);
// arriving large-buffer VMs are recognized by their spec. Scores decay
// smoothly with pressure so two interferers on one host is judged worse
// than one, but any interferer-free host beats every contaminated one.
type InterferenceAware struct {
	// LargeBuffer is the buffer size from which a VM counts as a bulk
	// interferer. Default 256 KB (between the paper's harmless 64 KB and
	// fatal 1–4 MB classes).
	LargeBuffer int
	// StaticPenalty is charged per risky colocation regardless of current
	// traffic — a quiet bulk VM can burst any time. Default 1.
	StaticPenalty float64
}

// Name implements ScorePlugin.
func (ia InterferenceAware) Name() string { return "interference-aware" }

// penaltyKey is an InterferenceAware plugin's effective parameters, its
// defaults applied: two plugins with equal keys score every host alike.
type penaltyKey struct {
	large  int
	static float64
}

func (ia InterferenceAware) key() penaltyKey {
	k := penaltyKey{large: ia.LargeBuffer, static: ia.StaticPenalty}
	if k.large <= 0 {
		k.large = 256 << 10
	}
	if k.static <= 0 {
		k.static = 1
	}
	return k
}

// penaltyClass is what InterferenceAware's score depends on in an arriving
// spec: latency-sensitive, bulk (buffer at or above LargeBuffer), or neither.
type penaltyClass int

const (
	classNone penaltyClass = iota
	classLatency
	classBulk
)

func (k penaltyKey) class(s Spec) penaltyClass {
	switch {
	case s.LatencySensitive:
		return classLatency
	case s.BufferSize >= k.large:
		return classBulk
	}
	return classNone
}

// of selects class c's penalty from a host's two sums; classNone is never
// penalized.
func (c penaltyClass) of(lat, bulk float64) float64 {
	switch c {
	case classLatency:
		return lat
	case classBulk:
		return bulk
	}
	return 0
}

// penalties sums h's risky colocations in one walk over its resident VMs,
// in residence order: lat for an arriving latency-sensitive VM, bulk for an
// arriving bulk VM.
func (k penaltyKey) penalties(h *HostInfo) (lat, bulk float64) {
	for i := range h.VMs {
		vm := &h.VMs[i]
		// Placing a latency-sensitive VM: every resident bulk sender hurts,
		// proportionally to its profiled wire pressure (MTUs/s × buffer,
		// i.e. bytes/s) relative to the uplink.
		if vm.EffectiveBuffer() >= k.large {
			lat += k.static
			if h.LinkBytesPerSec > 0 {
				lat += vm.BytesPerSec / h.LinkBytesPerSec
			}
		}
		// Placing a bulk VM: penalize hosts running latency-sensitive VMs.
		if vm.Spec.LatencySensitive {
			bulk += k.static
		}
	}
	return lat, bulk
}

// interferenceScore turns a host's penalty into InterferenceAware's score;
// Score and a memo-armed pick both go through it.
func interferenceScore(penalty float64) float64 { return 1 / (1 + penalty) }

// Score implements ScorePlugin.
func (ia InterferenceAware) Score(h *HostInfo, s Spec) float64 {
	k := ia.key()
	c := k.class(s)
	if c == classNone {
		return interferenceScore(0)
	}
	return interferenceScore(c.of(k.penalties(h)))
}

// penaltyMemo caches InterferenceAware penalties for the hosts of one
// lane-private view, one entry per view index. It is the per-host summary
// the arktos design keeps beside its scheduling view (SNIPPETS.md
// §2.5.2.1): a penalty depends only on a host's resident VMs, and a lane's
// view never changes those within a round — local claims move FreePCPUs,
// IOCommitted and MemBWCommitted only — so each host is walked at most once
// per round and every later pick reads its penalty in O(1).
//
// The memo lives in the lane, never on HostInfo: published snapshot hosts
// are not written, and a host clone that changes VMs (CommitRound,
// Snapshot.WithoutVM) reaches a lane only through the next round's view,
// which arm resets.
type penaltyMemo struct {
	key  penaltyKey
	pens []hostPenalties
}

// hostPenalties is one view host's memo entry: both class sums, filled
// together on first use.
type hostPenalties struct {
	lat, bulk float64
	have      bool
}

// arm empties the memo for a fresh view of n hosts scored under key k.
func (m *penaltyMemo) arm(n int, k penaltyKey) {
	m.key = k
	if cap(m.pens) < n {
		m.pens = make([]hostPenalties, n)
	}
	m.pens = m.pens[:n]
	clear(m.pens)
}

// penalty returns view host i's penalty for class c (h is that host),
// walking its resident VMs on first use.
func (m *penaltyMemo) penalty(i int, h *HostInfo, c penaltyClass) float64 {
	if c == classNone {
		return 0
	}
	e := &m.pens[i]
	if !e.have {
		e.lat, e.bulk = m.key.penalties(h)
		e.have = true
	}
	return c.of(e.lat, e.bulk)
}

// RateWeightedHeadroom is the exchange-priced headroom scorer: free
// capacity in each dimension is discounted by the host's congestion quote
// for that dimension, turning placement into rate-weighted vector
// bin-packing. A host with plenty of free PCPUs but an expensive fabric
// (its rate board prices the link as congested) scores like a nearly-full
// host; a host quoting base prices everywhere scores its raw headroom.
// On fleets whose policy does not price (no rate boards feeding Prices),
// every quote floors at 1 and the scorer degrades to plain headroom.
type RateWeightedHeadroom struct{}

// Name implements ScorePlugin.
func (RateWeightedHeadroom) Name() string { return "rate-weighted-headroom" }

// Score implements ScorePlugin.
func (RateWeightedHeadroom) Score(h *HostInfo, _ Spec) float64 {
	cpu := 0.0
	if h.TotalPCPUs > 0 {
		cpu = float64(h.FreePCPUs) / float64(h.TotalPCPUs)
	}
	link := 1 - h.IOCommitted
	if link < 0 {
		link = 0
	}
	// Each term is a [0,1] free-fraction divided by a price >= 1, so the
	// weighted sum stays in [0,1] and congested dimensions shrink toward 0.
	return 0.5*cpu/h.PriceOf(exchange.DimCPU) + 0.5*link/h.PriceOf(exchange.DimFabric)
}

// NewSpreadPipeline is the CPU-only spreading scheduler: capacity and
// health filters plus SpreadByCPU.
func NewSpreadPipeline() *Pipeline {
	return NewPipeline().
		AddFilter(FitsPCPUs{}).
		AddFilter(HealthyHost{}).
		AddFilter(MemBWFit{}).
		AddScorer(SpreadByCPU{}, 1)
}

// NewInterferencePipeline is the full scheduler: capacity and health
// filters, then interference avoidance dominating, with Reso headroom and
// CPU spreading as tie-breakers.
func NewInterferencePipeline() *Pipeline {
	return NewPipeline().
		AddFilter(FitsPCPUs{}).
		AddFilter(HealthyHost{}).
		AddFilter(MemBWFit{}).
		AddScorer(InterferenceAware{}, 1).
		AddScorer(ResoHeadroom{}, 0.3).
		AddScorer(SpreadByCPU{}, 0.5)
}

// NewRatePipeline is the exchange-priced scheduler: interference avoidance
// still dominates (a cheap host running a fatal neighbor is still fatal),
// but the headroom tie-break is rate-weighted, so among interference-safe
// hosts the fleet packs load where congestion prices are lowest.
func NewRatePipeline() *Pipeline {
	return NewPipeline().
		AddFilter(FitsPCPUs{}).
		AddFilter(HealthyHost{}).
		AddFilter(MemBWFit{}).
		AddScorer(InterferenceAware{}, 1).
		AddScorer(RateWeightedHeadroom{}, 0.6).
		AddScorer(SpreadByCPU{}, 0.2)
}
