package schedshard

import (
	"fmt"

	"resex/internal/par"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Shards is the number of logical placement shards the pending queue is
	// partitioned into. This is a semantic parameter: it changes which
	// shard sees which VM and therefore how often shards collide at commit
	// (the conflict-rate-vs-shard-count curve in abl-shardsched). Default
	// 1 — the serial scheduler, zero conflicts.
	Shards int
	// Workers bounds the goroutines that execute one round's shards.
	// Purely a wall-clock knob, exactly like experiments.Options.Parallel:
	// shard work, proposal order and the commit merge are all keyed on the
	// partition, never on goroutine interleaving, so output is
	// byte-identical at any width. 1 or less runs the shards in order on
	// the caller's goroutine.
	Workers int
	// Seed drives the splitmix64 key→shard partition hash.
	Seed int64
	// AvoidConflicts rotates each shard's score-tie-break start around the
	// host ring (shard i of S starts at host i·len/S) — the smart conflict
	// avoidance of the arktos design. Off, every shard breaks ties toward
	// the lowest node and equal-scoring shards herd onto the same host.
	AvoidConflicts bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Pending is one placement request waiting for a round: the VM's spec plus
// the VMInfo its bind will install. Key is assigned at Enqueue and is the
// request's canonical identity for partitioning and merge order.
type Pending struct {
	Key  uint64
	Spec Spec
	VM   VMInfo
	// Gang and GangSize mark scale-set members (see EnqueueGang): all
	// members carry the same Gang id (the first member's key) and are
	// placed all-or-nothing.
	Gang     uint64
	GangSize int
}

// ShardCounters is one logical shard's lifetime accounting.
type ShardCounters struct {
	Shard      int    `json:"shard"`
	Proposed   uint64 `json:"proposed"`
	Committed  uint64 `json:"committed"`
	Conflicted uint64 `json:"conflicted"`
	Starved    uint64 `json:"starved"`
}

// RoundStats summarizes one Round call.
type RoundStats struct {
	Proposed   int
	Committed  int
	Conflicted int
	// Pending is what remains queued after the round (conflict losers and
	// starved requests that will retry).
	Pending int
}

// lane is one logical shard's private working state. Everything here is
// touched by exactly one goroutine per round; the barrier between the
// propose phase and the merge phase is the only synchronization.
type lane struct {
	pipe    Pipeline
	view    []HostInfo  // snapshot copy the shard claims against
	ptrs    []*HostInfo // pointers into view, what the pipeline scores
	off     int         // this round's tie-break rotation
	memo    penaltyMemo // view hosts' interference penalties, reset per round
	cache   scoreCache  // view hosts' outcomes per penalty class, reset per round
	work    []Pending   // this round's partition slice (reused)
	props   []Bind      // this round's proposals (reused)
	starved []Pending   // this round's infeasible requests (reused)
	claims  []claim     // the current group's claims (reused)
	stats   ShardCounters
	// reference, set only by tests, makes pick score afresh through
	// Pipeline.pick: the run a cached lane must reproduce exactly.
	reference bool
}

// claim is one local claim's exact prior values on view host idx, so a
// failed gang unwinds with no float residue.
type claim struct {
	idx, free int
	io        float64
}

// refresh copies snap into the lane's private view and empties the
// per-round memo and score cache, which describe the previous view.
func (ln *lane) refresh(snap *Snapshot, off int) {
	n := len(snap.Hosts)
	if cap(ln.view) < n {
		ln.view = make([]HostInfo, n)
		ln.ptrs = make([]*HostInfo, n)
	}
	ln.view = ln.view[:n]
	ln.ptrs = ln.ptrs[:n]
	for i, h := range snap.Hosts {
		ln.view[i] = *h // VMs slice aliases the snapshot's: read-only by contract
		ln.ptrs[i] = &ln.view[i]
	}
	ln.off = off
	ln.memo.arm(n)
	ln.cache.filled = [numClasses]bool{}
}

// pick returns the view index the lane's pipeline chooses for s (-1 if no
// host is feasible). The first pick for a penalty class scores every view
// host into the cache; later picks for that class scan the cached outcomes
// with the same rule, so they return exactly what Pipeline.pick would.
func (ln *lane) pick(s Spec) int {
	if ln.reference {
		return ln.pipe.pick(ln.ptrs, s, ln.off)
	}
	c := classOf(s)
	cache := &ln.cache
	if !cache.filled[c] {
		cache.filled[c] = true
		cache.rows[c] = resize(cache.rows[c], len(ln.ptrs))
		for i := range ln.ptrs {
			ln.rescoreClass(c, i)
		}
	}
	row := cache.rows[c]
	w := newWinner(len(row), ln.off)
	for i := range row {
		if row[i].ok {
			w.offer(i, row[i].score)
		}
	}
	return w.best
}

// rescoreClass recomputes view host i's cached outcome for class c.
func (ln *lane) rescoreClass(c penaltyClass, i int) {
	h := ln.ptrs[i]
	e := &ln.cache.rows[c][i]
	*e = cachedScore{ok: Feasible(h)}
	if e.ok {
		e.score = ln.pipe.score(h, ln.memo.penalty(i, h, c))
	}
}

// rescore recomputes view host i's cached outcomes after its headroom
// changed. Its penalties cannot have: claims never touch VMs.
func (ln *lane) rescore(i int) {
	for c, ok := range ln.cache.filled {
		if ok {
			ln.rescoreClass(penaltyClass(c), i)
		}
	}
}

// claimFor adjusts view host idx's headroom for p so this shard's later
// picks see its earlier ones, and returns the prior values. The claim
// touches FreePCPUs and IOCommitted but never the resident-VM list —
// same-round interference between a shard's own proposals becomes visible
// only after commit, like every other shard's. Never mutate h.VMs: it
// aliases the shared snapshot, and the penalty memo relies on it staying
// fixed for the round.
func (ln *lane) claimFor(idx int, p *Pending) claim {
	h := &ln.view[idx]
	c := claim{idx: idx, free: h.FreePCPUs, io: h.IOCommitted}
	h.FreePCPUs--
	if h.LinkBytesPerSec > 0 {
		h.IOCommitted += p.VM.BytesPerSec / h.LinkBytesPerSec
	}
	ln.rescore(idx)
	return c
}

// unwind restores claims in reverse (later claims may touch the same host),
// re-scoring each restored host.
func (ln *lane) unwind(claims []claim) {
	for k := len(claims) - 1; k >= 0; k-- {
		c := claims[k]
		h := &ln.view[c.idx]
		h.FreePCPUs = c.free
		h.IOCommitted = c.io
		ln.rescore(c.idx)
	}
}

// Binding is one committed bind as the scheduler's log keeps it: the
// placement's key and node, and its gang membership (the invariant
// auditor's gang-atomicity check reads Gang and GangSize).
type Binding struct {
	Key      uint64
	Node     int
	Gang     uint64
	GangSize int
}

// Scheduler runs the optimistic multi-shard placement loop against a
// Store. Call Enqueue for every arriving VM, then Round once per scheduling
// tick (or Run to drain). Scheduler is not safe for concurrent use; the
// concurrency is *inside* Round, bounded by Config.Workers.
type Scheduler struct {
	cfg   Config
	store *Store
	lanes []*lane

	pending []Pending // sorted by ascending key, the canonical queue order
	nextBuf []Pending // double buffer for the post-merge requeue
	merge   []Bind    // reused merge buffer

	nextKey      uint64
	rounds       uint64
	retries      uint64
	gangsPlaced  uint64
	gangsFailed  uint64
	gangsPartial uint64
	bound        []Binding
	failed       []Pending
}

// GangStats is the scheduler's lifetime gang accounting.
type GangStats struct {
	// Placed counts gangs whose every member committed (atomically, in one
	// round). Failed counts gangs declared unplaceable. Partial counts gangs
	// observed committed with some but not all members — the all-or-nothing
	// invariant says this is always zero; it is reported (and audited by
	// internal/invariant) rather than assumed.
	Placed  uint64
	Failed  uint64
	Partial uint64
}

// NewScheduler builds a scheduler over the given store. Every shard places
// with NewInterferencePipeline.
func NewScheduler(store *Store, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, store: store}
	for i := 0; i < cfg.Shards; i++ {
		s.lanes = append(s.lanes, &lane{pipe: NewInterferencePipeline(), stats: ShardCounters{Shard: i}})
	}
	return s
}

// Config returns the effective configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Store returns the scheduler's backing store.
func (s *Scheduler) Store() *Store { return s.store }

// Enqueue queues one placement request and returns its key. Keys are
// assigned in arrival order and never reused, so the pending queue stays
// key-sorted by construction: retries re-enter with their original (older,
// smaller) keys before any new arrival's.
func (s *Scheduler) Enqueue(spec Spec, vm VMInfo) uint64 {
	s.nextKey++
	vm.Spec = spec
	s.pending = append(s.pending, Pending{Key: s.nextKey, Spec: spec, VM: vm})
	return s.nextKey
}

// EnqueueGang queues a scale-set: n identical placement requests that must
// bind all-or-nothing (arktos-style gang placement). Member i takes the
// name "<spec.Name>/<i>"; all members share a Gang id — the first member's
// key — and consecutive keys, so the gang is contiguous in canonical key
// order, partitions onto a single shard, and commits (or conflicts, or
// starves, or fails) as a unit. Returns the Gang id; n < 1 enqueues
// nothing and returns 0.
func (s *Scheduler) EnqueueGang(spec Spec, vm VMInfo, n int) uint64 {
	if n < 1 {
		return 0
	}
	gang := s.nextKey + 1
	base := spec.Name
	for i := 0; i < n; i++ {
		s.nextKey++
		member := spec
		member.Name = fmt.Sprintf("%s/%d", base, i)
		mvm := vm
		mvm.Spec = member
		s.pending = append(s.pending, Pending{Key: s.nextKey, Spec: member, VM: mvm,
			Gang: gang, GangSize: n})
	}
	return gang
}

// splitmix64 is the finalizer experiments.DeriveSeed uses; here it maps a
// (seed, key) pair onto a shard uniformly.
func splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// shardOf partitions a key. Depends only on (Seed, Shards, key): the same
// request lands on the same shard every round, on every run, at any worker
// count.
func (s *Scheduler) shardOf(key uint64) int {
	z := splitmix64(uint64(s.cfg.Seed) + 0x9e3779b97f4a7c15*key)
	return int(z % uint64(s.cfg.Shards))
}

// partitionKey is what a pending request partitions by: its own key, or the
// gang id for scale-set members — the whole gang must land on one shard so
// a single lane can propose (or starve) it atomically.
func (p *Pending) partitionKey() uint64 {
	if p.Gang != 0 {
		return p.Gang
	}
	return p.Key
}

// Round runs one propose→merge→commit cycle over the current pending
// queue:
//
//  1. snapshot: every shard gets the same immutable store view;
//  2. partition: pending requests split across shards by the seeded hash,
//     each shard's slice in ascending key order;
//  3. propose (concurrent, ≤ Workers goroutines): each shard copies the
//     snapshot's host values into its private view, then for each of its
//     requests runs the pipeline and claims the winner locally (FreePCPUs,
//     IOCommitted) so its own later picks see its earlier ones. Shards do
//     not see each other's claims — that blindness is what optimistic
//     concurrency trades for lock-freedom;
//  4. merge + commit (single goroutine): all proposals ordered by
//     ascending key — the canonical merge order, independent of shard and
//     goroutine timing — and applied through Store.CommitRound. Binds that
//     lost the race for headroom come back as conflicts and requeue, to
//     retry next round against the refreshed snapshot.
//
// A round that proposes or commits nothing while requests remain declares
// them failed (the fleet is genuinely out of feasible headroom for them;
// retrying forever would livelock the caller's drain loop).
func (s *Scheduler) Round() RoundStats {
	if len(s.pending) == 0 {
		return RoundStats{}
	}
	s.rounds++
	var rs RoundStats
	snap := s.store.Snapshot()

	// Partition. Lane work slices are reused round over round.
	for _, ln := range s.lanes {
		ln.work = ln.work[:0]
		ln.props = ln.props[:0]
		ln.starved = ln.starved[:0]
	}
	for i := range s.pending {
		p := &s.pending[i]
		ln := s.lanes[s.shardOf(p.partitionKey())]
		ln.work = append(ln.work, *p)
	}

	// Propose, shards in parallel up to Workers.
	s.propose(snap)

	// Merge in canonical key order and commit.
	merged := s.merge[:0]
	for _, ln := range s.lanes {
		merged = append(merged, ln.props...)
		rs.Proposed += len(ln.props)
	}
	s.merge = merged
	committed, conflicted := s.store.CommitRound(merged)
	rs.Committed, rs.Conflicted = len(committed), len(conflicted)
	for _, b := range committed {
		s.bound = append(s.bound, Binding{Key: b.Key, Node: b.Node, Gang: b.Gang, GangSize: b.GangSize})
	}
	bindShard := func(b Bind) int {
		if b.Gang != 0 {
			return s.shardOf(b.Gang)
		}
		return s.shardOf(b.Key)
	}
	for _, b := range committed {
		s.lanes[bindShard(b)].stats.Committed++
	}
	for _, b := range conflicted {
		s.lanes[bindShard(b)].stats.Conflicted++
	}

	// Gang accounting: committed gangs are contiguous runs in key order
	// (CommitRound is atomic per gang, so a run is either a whole gang or —
	// if the invariant were ever broken — a partial one, which is counted,
	// not hidden).
	for i := 0; i < len(committed); {
		j := i + 1
		if g := committed[i].Gang; g != 0 {
			for j < len(committed) && committed[j].Gang == g {
				j++
			}
			if j-i == committed[i].GangSize {
				s.gangsPlaced++
			} else {
				s.gangsPartial++
			}
		}
		i = j
	}

	// Requeue: conflict losers (looked up by key in the still-intact
	// pending queue) and starved requests, back in ascending key order.
	next := s.nextBuf[:0]
	for _, b := range conflicted {
		if p, ok := s.pendingByKey(b.Key); ok {
			next = append(next, p)
		}
	}
	for _, ln := range s.lanes {
		next = append(next, ln.starved...)
	}
	sortPending(next)
	if rs.Committed == 0 {
		// Nothing landed: the snapshot cannot have changed (the store only
		// advances on commits between rounds), so the next round would be
		// identical. Declare the remainder unplaceable. (A conflict with
		// zero commits is impossible — a bind only loses headroom to an
		// earlier-keyed bind that won it.)
		s.failed = append(s.failed, next...)
		var lastGang uint64
		for _, p := range next {
			if p.Gang != 0 && p.Gang != lastGang {
				s.gangsFailed++
				lastGang = p.Gang
			}
		}
		next = next[:0]
	}
	s.retries += uint64(len(next))
	s.nextBuf = s.pending[:0]
	s.pending = next
	rs.Pending = len(next)
	return rs
}

// propose runs every lane's propose step on up to Workers goroutines. Each
// lane's work is self-contained, so interleaving cannot affect its
// proposals.
func (s *Scheduler) propose(snap *Snapshot) {
	par.For(len(s.lanes), s.cfg.Workers, func(i int) { s.runLane(s.lanes[i], i, snap) })
}

// runLane executes one shard's propose step: refresh the private view from
// the snapshot, then pick-and-claim each request in key order.
func (s *Scheduler) runLane(ln *lane, shardIdx int, snap *Snapshot) {
	if len(ln.work) == 0 {
		return
	}
	off := 0
	if s.cfg.AvoidConflicts && s.cfg.Shards > 1 {
		off = shardIdx * len(snap.Hosts) / s.cfg.Shards
	}
	ln.refresh(snap, off)
	// Gang members are contiguous in work (consecutive keys, key-sorted
	// partition slices); each group is proposed all-or-nothing.
	for i := 0; i < len(ln.work); {
		j := i + 1
		if g := ln.work[i].Gang; g != 0 {
			for j < len(ln.work) && ln.work[j].Gang == g {
				j++
			}
		}
		group := ln.work[i:j]
		i = j

		ln.claims = ln.claims[:0]
		propMark := len(ln.props)
		ok := true
		for k := range group {
			p := &group[k]
			idx := ln.pick(p.Spec)
			if idx < 0 {
				ok = false
				break
			}
			ln.claims = append(ln.claims, ln.claimFor(idx, p))
			ln.stats.Proposed++
			ln.props = append(ln.props, Bind{Key: p.Key, Node: ln.view[idx].Node, VM: p.VM,
				Gang: p.Gang, GangSize: p.GangSize})
		}
		if ok {
			continue
		}
		// Starve the whole group: a gang with no feasible placement for
		// every member proposes nothing this round.
		ln.unwind(ln.claims)
		ln.stats.Proposed -= uint64(len(ln.claims))
		ln.props = ln.props[:propMark]
		ln.stats.Starved += uint64(len(group))
		ln.starved = append(ln.starved, group...)
	}
}

// pendingByKey binary-searches the key-sorted pending queue.
func (s *Scheduler) pendingByKey(key uint64) (Pending, bool) {
	lo, hi := 0, len(s.pending)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.pending[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.pending) && s.pending[lo].Key == key {
		return s.pending[lo], true
	}
	return Pending{}, false
}

// sortPending insertion-sorts by ascending key (inputs are nearly sorted:
// a few conflict losers ahead of the starved tail).
func sortPending(ps []Pending) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for j >= 0 && ps[j].Key > p.Key {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = p
	}
}

// Run drains the pending queue: rounds until nothing is pending. Always
// terminates — a round that cannot commit anything fails its remainder.
func (s *Scheduler) Run() {
	for len(s.pending) > 0 {
		s.Round()
	}
}

// Rounds, Retries, Conflicts: lifetime counters.
func (s *Scheduler) Rounds() uint64  { return s.rounds }
func (s *Scheduler) Retries() uint64 { return s.retries }

// Conflicts returns total binds rejected at commit across all rounds.
func (s *Scheduler) Conflicts() uint64 {
	var n uint64
	for _, ln := range s.lanes {
		n += ln.stats.Conflicted
	}
	return n
}

// Gangs returns the lifetime gang accounting.
func (s *Scheduler) Gangs() GangStats {
	return GangStats{Placed: s.gangsPlaced, Failed: s.gangsFailed, Partial: s.gangsPartial}
}

// PendingLen is the queue depth awaiting the next round.
func (s *Scheduler) PendingLen() int { return len(s.pending) }

// Bound returns every committed bind in commit order (ascending key within
// each round, rounds in sequence). Callers must not modify it.
func (s *Scheduler) Bound() []Binding { return s.bound }

// Failed returns the requests declared unplaceable, in key order per
// failing round. Callers must not modify it.
func (s *Scheduler) Failed() []Pending { return s.failed }

// Shards returns a copy of the per-shard lifetime counters.
func (s *Scheduler) Shards() []ShardCounters {
	out := make([]ShardCounters, len(s.lanes))
	for i, ln := range s.lanes {
		out[i] = ln.stats
	}
	return out
}

// BindFNV folds every committed bind (key, node) into an FNV-1a checksum:
// a cheap, order-sensitive fingerprint of the whole placement outcome.
// Equal checksums across shard counts, worker counts and restore paths are
// what the determinism gates compare.
func (s *Scheduler) BindFNV() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, b := range s.bound {
		mix(b.Key)
		mix(uint64(b.Node))
	}
	return h
}
