package schedshard

import "fmt"

// Pipeline is one of the two built-in placement policies (NewSpreadPipeline,
// NewInterferencePipeline): a host passes if Feasible, and a feasible host
// scores the weighted sum of the three built-in scores — interference
// avoidance, Reso headroom and CPU spreading, summed in that order, a zero
// weight leaving its score out. A Pipeline holds no state, so one value
// serves any number of goroutines.
type Pipeline struct {
	interference, reso, spread float64
}

// NewSpreadPipeline is the CPU-only spreading scheduler: the feasibility
// rule plus CPU spreading.
func NewSpreadPipeline() Pipeline { return Pipeline{spread: 1} }

// NewInterferencePipeline is the full scheduler: interference avoidance
// dominating, with Reso headroom and CPU spreading as tie-breakers.
func NewInterferencePipeline() Pipeline {
	return Pipeline{interference: 1, reso: 0.3, spread: 0.5}
}

// Feasible is the placement feasibility rule every pipeline (and the
// random baseline) applies: a guest needs a dedicated PCPU, and a
// quarantined host takes no new VM — binding one to a host that cannot be
// observed means ResEx would manage it blind from the first interval.
// Degraded hosts stay schedulable (their stale profiles just score worse).
func Feasible(h *HostInfo) bool {
	return h.FreePCPUs > 0 && h.Health != HealthQuarantined
}

// Pick is the serial placement decision over a Node-sorted host list (a
// snapshot's): the best-scoring feasible host, score ties to the lowest
// node.
func (p Pipeline) Pick(hosts []*HostInfo, s Spec) (*HostInfo, error) {
	i := p.pick(hosts, s, 0)
	if i < 0 {
		return nil, fmt.Errorf("placement: no feasible host for %q", s.Name)
	}
	return hosts[i], nil
}

// pick returns the index into hosts of the pipeline's choice for s, or -1
// when no host is feasible. Score ties break by *rotated* index order —
// candidate i ranks as (i-off) mod len(hosts), lowest rank wins. With
// off = 0 over a Node-sorted list that is the lowest node (Pick); a
// per-shard offset makes equal-scoring shards start their tie-break at
// different points of the host ring, which is the smart-conflict-avoidance
// trick: identical pipelines stop all herding onto the same host when
// scores tie. Allocates nothing.
//
// A lane picks from its score cache instead (lane.pick); pick walks every
// host's resident VMs and is the reference the cache is tested against.
func (p Pipeline) pick(hosts []*HostInfo, s Spec, off int) int {
	c := classOf(s)
	w := newWinner(len(hosts), off)
	for i, h := range hosts {
		if !Feasible(h) {
			continue
		}
		pen := 0.0
		if p.interference != 0 && c != classNone {
			pen = c.of(penalties(h))
		}
		w.offer(i, p.score(h, pen))
	}
	return w.best
}

// score is feasible host h's weighted score for an arriving VM whose
// interference penalty on h is pen.
func (p Pipeline) score(h *HostInfo, pen float64) float64 {
	score := 0.0
	if p.interference != 0 {
		score += p.interference * interferenceScore(pen)
	}
	if p.reso != 0 {
		score += p.reso * resoHeadroom(h)
	}
	if p.spread != 0 {
		score += p.spread * spreadByCPU(h)
	}
	return score
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

// cachedScore is one view host's pipeline outcome for one penalty class.
type cachedScore struct {
	score float64
	ok    bool // feasible
}

// scoreCache holds a lane's per-round pipeline outcomes: for each penalty
// class the round has picked for, every view host's verdict and score. It
// is the rest of the per-node summary the penalty memo started: a pipeline
// scores every spec of a class alike, so a pick after the first is a scan
// over cached outcomes, and a claim or gang unwind re-scores only the hosts
// it changed (lane.rescore).
type scoreCache struct {
	filled [numClasses]bool
	rows   [numClasses][]cachedScore
}

// ---------------------------------------------------------------------------
// The built-in scores, each in [0, 1] (higher = better).
// ---------------------------------------------------------------------------

// spreadByCPU scores hosts by free PCPU fraction: the classic
// least-allocated spreading any CPU-only scheduler does.
func spreadByCPU(h *HostInfo) float64 {
	if h.TotalPCPUs == 0 {
		return 0
	}
	return float64(h.FreePCPUs) / float64(h.TotalPCPUs)
}

// resoHeadroom scores hosts by how much economic room is left: half from
// the uncommitted uplink fraction (profiled send rates vs capacity), half
// from the mean remaining Reso balance of resident VMs. A host whose VMs
// are burning their allocations flat is a bad landing spot even if PCPUs
// are free.
func resoHeadroom(h *HostInfo) float64 {
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

// Interference avoidance penalizes the colocations the paper shows are
// fatal: a latency-sensitive VM next to a large-buffer bursty sender.
// Resident pressure is IBMon-profiled (MTUs/s at a large inferred buffer
// size); arriving large-buffer VMs are recognized by their spec. Scores
// decay smoothly with pressure so two interferers on one host is judged
// worse than one, but any interferer-free host beats every contaminated
// one.
const (
	// LargeBuffer is the buffer size from which a VM counts as a bulk
	// interferer: between the paper's harmless 64 KB and fatal 1–4 MB
	// classes. The rebalancer classifies interferer candidates by it too.
	LargeBuffer = 256 << 10
	// staticPenalty is charged per risky colocation regardless of current
	// traffic — a quiet bulk VM can burst any time.
	staticPenalty = 1
)

// penaltyClass is what the interference score depends on in an arriving
// spec: latency-sensitive, bulk (buffer at or above LargeBuffer), or
// neither.
type penaltyClass int

const (
	classNone penaltyClass = iota
	classLatency
	classBulk
	numClasses
)

func classOf(s Spec) penaltyClass {
	switch {
	case s.LatencySensitive:
		return classLatency
	case s.BufferSize >= LargeBuffer:
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
func penalties(h *HostInfo) (lat, bulk float64) {
	for i := range h.VMs {
		vm := &h.VMs[i]
		// Placing a latency-sensitive VM: every resident bulk sender hurts,
		// proportionally to its profiled wire pressure (MTUs/s × buffer,
		// i.e. bytes/s) relative to the uplink.
		if vm.EffectiveBuffer() >= LargeBuffer {
			lat += staticPenalty
			if h.LinkBytesPerSec > 0 {
				lat += vm.BytesPerSec / h.LinkBytesPerSec
			}
		}
		// Placing a bulk VM: penalize hosts running latency-sensitive VMs.
		if vm.Spec.LatencySensitive {
			bulk += staticPenalty
		}
	}
	return lat, bulk
}

// interferenceScore turns a host's penalty into the interference score.
func interferenceScore(penalty float64) float64 { return 1 / (1 + penalty) }

// penaltyMemo caches interference penalties for the hosts of one
// lane-private view, one entry per view index. It is the per-host summary
// the arktos design keeps beside its scheduling view (SNIPPETS.md
// §2.5.2.1): a penalty depends only on a host's resident VMs, and a lane's
// view never changes those within a round — local claims move FreePCPUs
// and IOCommitted only — so each host is walked at most once per round and
// every later score reads its penalty in O(1).
//
// The memo lives in the lane, never on HostInfo: published snapshot hosts
// are not written, and a host clone that changes VMs (CommitRound,
// Snapshot.WithoutVM) reaches a lane only through the next round's view,
// which arm resets.
type penaltyMemo struct {
	pens []hostPenalties
}

// hostPenalties is one view host's memo entry: both class sums, filled
// together on first use.
type hostPenalties struct {
	lat, bulk float64
	have      bool
}

// arm empties the memo for a fresh view of n hosts.
func (m *penaltyMemo) arm(n int) { m.pens = resize(m.pens, n) }

// penalty returns view host i's penalty for class c (h is that host),
// walking its resident VMs on first use.
func (m *penaltyMemo) penalty(i int, h *HostInfo, c penaltyClass) float64 {
	if c == classNone {
		return 0
	}
	e := &m.pens[i]
	if !e.have {
		e.lat, e.bulk = penalties(h)
		e.have = true
	}
	return c.of(e.lat, e.bulk)
}
