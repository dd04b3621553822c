// Package schedshard is the shared-state optimistic multi-shard placement
// layer: the scale-out answer to internal/placement's serial placement
// decision, in the style of the arktos/omega global-scheduler design
// (SNIPPETS.md §2.5 — shared-state lock-free optimistic scheduling).
//
// The package has three parts:
//
//   - an immutable cluster-state Snapshot plus a delta-commit Store:
//     readers get a consistent versioned view for free (it never mutates),
//     writers commit bind deltas which the store validates against live
//     headroom, copy-on-write-cloning only the touched hosts;
//   - a Pipeline — one of two fixed placement policies: a feasibility
//     rule and a weighted sum of built-in scores, led by interference
//     avoidance — with a zero-alloc pick whose tie-break can be rotated
//     per shard for conflict avoidance;
//   - a Scheduler that partitions pending placements across N logical
//     shards by a seeded splitmix64 hash, runs every shard's pipeline
//     concurrently against the same snapshot, and merges the shards'
//     proposed binds in canonical key order at commit — conflicts (two
//     shards binding into the same exhausted host headroom) are detected
//     there and the losers retry against the refreshed snapshot.
//
// Determinism is the contract throughout: partition, proposal and merge
// order depend only on (seed, shard count, pending keys), never on
// goroutine interleaving, so output is byte-identical at any worker count.
package schedshard

import (
	"cmp"
	"slices"
)

// Spec is what the scheduler knows about a VM *before* it runs: its
// declared workload class. Resident VMs are additionally described by live
// IBMon profiles (see VMInfo); an arriving VM only has its spec.
type Spec struct {
	Name string
	// LatencySensitive marks VMs with a latency SLA (the paper's trading
	// servers); false marks bulk/throughput workloads.
	LatencySensitive bool
	// BufferSize is the declared application buffer size in bytes — the
	// paper's single best predictor of how much damage a VM can do to a
	// colocated latency-sensitive neighbor.
	BufferSize int
}

// VMInfo is the scheduler's view of one VM already resident on a host:
// spec plus the live signals the host's IBMon and ResEx export.
type VMInfo struct {
	Spec Spec
	// MTUsPerSec/BytesPerSec are the IBMon-profiled send rates.
	MTUsPerSec  float64
	BytesPerSec float64
	// BufferSize is the IBMon-inferred buffer size (may exceed the spec's
	// declared size; the interference score uses the larger of the two).
	BufferSize int
	// IntfPercent is the VM's latency elevation over its baseline in the
	// last ResEx epoch, percent.
	IntfPercent float64
	// CapPct is the CPU cap the host's policy currently enforces
	// (100 = uncapped).
	CapPct float64
}

// EffectiveBuffer returns the larger of declared and inferred buffer size.
// The pointer receiver keeps the penalty walk from copying each resident
// VMInfo.
func (v *VMInfo) EffectiveBuffer() int {
	if v.BufferSize > v.Spec.BufferSize {
		return v.BufferSize
	}
	return v.Spec.BufferSize
}

// HostInfo is one host's state snapshot, the unit a Pipeline scores.
type HostInfo struct {
	Node       int
	FreePCPUs  int
	TotalPCPUs int // guest-assignable PCPUs (excludes dom0's)
	// LinkBytesPerSec is the host uplink capacity.
	LinkBytesPerSec float64
	// IOCommitted is the fraction of the uplink the resident VMs' profiled
	// send rates already account for.
	IOCommitted float64
	// ResoHeadroom is the mean remaining Reso balance fraction across the
	// host's managed VMs (1 = untouched allocations, 0 = exhausted).
	ResoHeadroom float64
	VMs          []VMInfo
}

// Snapshot is one immutable, versioned view of the whole fleet. Hosts are
// sorted by Node. Nothing in this package ever mutates a published
// snapshot or anything reachable from it — any number of shards may score
// against it concurrently without coordination.
type Snapshot struct {
	Version uint64
	Hosts   []*HostInfo
}

// Host returns the snapshot's entry for a node (nil if absent), by binary
// search over the Node-sorted host list.
func (s *Snapshot) Host(node int) *HostInfo {
	if i := hostIndex(s.Hosts, node); i >= 0 {
		return s.Hosts[i]
	}
	return nil
}

// WithoutVM derives the what-if host list the rebalancer scores against: a
// copy of the snapshot's hosts with one named VM elided from one node, as
// if it were not running. The elided host is rebuilt exactly the way the
// fleet builds a skip view — IOCommitted re-summed over the remaining VMs
// in residence order, one PCPU vacated — so the result is bit-identical to
// constructing the view with the VM skipped, not merely close after a
// float subtraction.
func (s *Snapshot) WithoutVM(node int, name string) []*HostInfo {
	hosts := make([]*HostInfo, len(s.Hosts))
	copy(hosts, s.Hosts)
	for i, h := range hosts {
		if h.Node != node {
			continue
		}
		clone := *h
		clone.VMs = make([]VMInfo, 0, len(h.VMs))
		clone.IOCommitted = 0
		for k := range h.VMs {
			vm := &h.VMs[k]
			if vm.Spec.Name == name {
				continue
			}
			if clone.LinkBytesPerSec > 0 {
				clone.IOCommitted += vm.BytesPerSec / clone.LinkBytesPerSec
			}
			clone.VMs = append(clone.VMs, *vm)
		}
		if len(clone.VMs) < len(h.VMs) && clone.FreePCPUs < clone.TotalPCPUs {
			clone.FreePCPUs++ // the elided VM would vacate its PCPU
		}
		hosts[i] = &clone
		break
	}
	return hosts
}

// Bind is one proposed (or committed) placement delta: VM onto Node. Key is
// the placement's canonical identity — assignment order, monotone across a
// scheduler's lifetime — and is the only thing commit ordering depends on.
type Bind struct {
	Key  uint64
	Node int
	VM   VMInfo
	// Gang, when nonzero, marks the bind as one member of an all-or-nothing
	// gang (a scale-set): CommitRound applies the gang's binds atomically —
	// either every member commits or every member conflicts. Gang is the Key
	// of the gang's first member, so a gang's binds are consecutive in
	// canonical key order. GangSize is the full gang population; a gang
	// presented to CommitRound with fewer members than GangSize is rejected
	// wholesale (a partial gang must never commit).
	Gang     uint64
	GangSize int
}

// Store holds the current snapshot and applies bind deltas to it. It is
// the single synchronization point of the design: shards never lock hosts
// or each other — they read an immutable snapshot and funnel their binds
// through CommitRound, which applies them one by one in canonical key
// order, copy-on-write-cloning each touched host at most once per round.
//
// Store itself is not safe for concurrent mutation; the Scheduler calls it
// only from the merge step (a single goroutine), and the fleet calls it
// from the simulation loop. Concurrent *readers* of a snapshot obtained
// before a commit are always safe: commits never mutate published state.
type Store struct {
	snap      *Snapshot
	publishes uint64
	commits   uint64
	conflicts uint64

	// spare[i], when non-nil, is the full-capacity VMs slice of the current
	// snapshot's host i: an array an earlier CommitRound allocated, which
	// the published host sees clipped to its length. Only that chain's next
	// commit may append past the length. Publish clears every entry.
	spare [][]VMInfo
	// stamp[i] is the CommitRound (numbered by round) that last cloned
	// host i; touched lists this round's clones.
	stamp   []uint64
	round   uint64
	touched []int
	// Reused per CommitRound: its two result slices and the gang saves.
	committed, conflicted []Bind
	saves                 []savedHost
}

// savedHost is one host's exact pre-gang state, for gang rollback.
type savedHost struct {
	idx, free, vms int
	io             float64
}

// NewStore creates a store holding an empty version-0 snapshot; call
// Publish to install the first real view.
func NewStore() *Store {
	return &Store{snap: &Snapshot{}}
}

// Snapshot returns the current immutable view. Callers may hold it for as
// long as they like; it never changes.
func (st *Store) Snapshot() *Snapshot { return st.snap }

// Version returns the current snapshot version (one per Publish or
// effective CommitRound).
func (st *Store) Version() uint64 { return st.snap.Version }

// Commits and Conflicts count binds accepted and rejected at commit over
// the store's lifetime.
func (st *Store) Commits() uint64   { return st.commits }
func (st *Store) Conflicts() uint64 { return st.conflicts }

// Publishes counts full-view installs (vs delta commits).
func (st *Store) Publishes() uint64 { return st.publishes }

// Publish installs a full rebuilt view as the next snapshot version,
// sorting hosts by Node (canonical order; stable for already-sorted
// input). The store takes ownership of the slice and the HostInfo values,
// but never appends into their VMs arrays: the first commit onto a
// published host copies its VMs.
func (st *Store) Publish(hosts []*HostInfo) *Snapshot {
	for i := 1; i < len(hosts); i++ { // insertion sort: hosts arrive sorted
		h := hosts[i]
		j := i - 1
		for j >= 0 && hosts[j].Node > h.Node {
			hosts[j+1] = hosts[j]
			j--
		}
		hosts[j+1] = h
	}
	st.publishes++
	st.snap = &Snapshot{Version: st.snap.Version + 1, Hosts: hosts}
	st.spare = resize(st.spare, len(hosts))
	st.stamp = resize(st.stamp, len(hosts))
	return st.snap
}

// resize returns s with length n, every element zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// CommitRound applies one round's proposed binds optimistically: binds are
// ordered by ascending Key (the canonical merge order — independent of
// which shard proposed what, or when; keys are unique), then validated one
// by one against the evolving next view. A bind whose target host fails
// Feasible — because earlier-keyed binds exhausted what the proposing
// shard thought was headroom — is a conflict: it is rejected, counted, and
// returned for the caller to retry against the refreshed snapshot.
//
// Gang binds (Bind.Gang != 0) are all-or-nothing: the gang's members are
// consecutive in key order, and if any member conflicts the whole gang is
// rolled back to the host states it found — exact saved values, not
// arithmetic inverses, so rollback leaves no float residue — and every
// member is returned as conflicted. A gang arriving with fewer members
// than its GangSize is rejected without touching anything. Because the
// next snapshot is only installed after all groups are processed, no
// published Snapshot ever exposes a partially bound gang.
//
// Touched hosts are cloned copy-on-write; untouched hosts are shared with
// the previous snapshot. The previous snapshot itself is never mutated.
// Every commit derives its snapshot from the current one, so snapshots form
// a linear chain, and a clone may append its new VMs in place past the end
// of a VMs array an earlier commit allocated: every older snapshot's host
// sees only its own [:len] of that array, and its len == cap, so no holder
// can reach the appended elements (or append into them itself).
//
// Both returned slices are in ascending key order. They alias buffers the
// store reuses and stay valid until the next CommitRound.
func (st *Store) CommitRound(binds []Bind) (committed, conflicted []Bind) {
	if len(binds) == 0 {
		return nil, nil
	}
	slices.SortFunc(binds, func(a, b Bind) int { return cmp.Compare(a.Key, b.Key) })
	committed, conflicted = st.committed[:0], st.conflicted[:0]
	prev := st.snap
	next := &Snapshot{Version: prev.Version + 1, Hosts: slices.Clone(prev.Hosts)}
	st.round++
	st.touched = st.touched[:0]

	// cloneOf returns the index of a node's mutable clone (-1 if absent),
	// cloning copy-on-write on first touch this round.
	cloneOf := func(node int) int {
		idx := hostIndex(next.Hosts, node)
		if idx < 0 || st.stamp[idx] == st.round {
			return idx
		}
		st.stamp[idx] = st.round
		st.touched = append(st.touched, idx)
		clone := *next.Hosts[idx]
		if spare := st.spare[idx]; spare != nil {
			clone.VMs = spare[:len(clone.VMs)] // append in place
		} else {
			clone.VMs = slices.Clip(clone.VMs) // not ours: append copies
		}
		next.Hosts[idx] = &clone
		return idx
	}
	// apply validates one bind against the evolving view and claims its
	// resources. It reports failure without mutating anything.
	apply := func(b *Bind) bool {
		idx := cloneOf(b.Node)
		if idx < 0 {
			return false
		}
		h := next.Hosts[idx]
		if !Feasible(h) {
			return false
		}
		h.FreePCPUs--
		if h.LinkBytesPerSec > 0 {
			h.IOCommitted += b.VM.BytesPerSec / h.LinkBytesPerSec
		}
		h.VMs = append(h.VMs, b.VM)
		return true
	}

	for i := 0; i < len(binds); {
		j := i + 1
		if g := binds[i].Gang; g != 0 {
			for j < len(binds) && binds[j].Gang == g {
				j++
			}
		}
		group := binds[i:j]
		i = j

		if g := group[0].Gang; g != 0 && len(group) != group[0].GangSize {
			// Partial gang (cannot happen through the Scheduler, which
			// requeues gangs whole; defends direct CommitRound callers and
			// the fuzzer): reject without touching host state.
			st.conflicts += uint64(len(group))
			conflicted = append(conflicted, group...)
			continue
		}
		saves := st.saves[:0]
		if group[0].Gang != 0 {
			for k := range group {
				idx := cloneOf(group[k].Node)
				if idx < 0 || slices.ContainsFunc(saves, func(s savedHost) bool { return s.idx == idx }) {
					continue
				}
				h := next.Hosts[idx]
				saves = append(saves, savedHost{idx: idx, free: h.FreePCPUs,
					vms: len(h.VMs), io: h.IOCommitted})
			}
		}
		st.saves = saves
		applied := 0
		for k := range group {
			if !apply(&group[k]) {
				break
			}
			applied++
		}
		if applied == len(group) {
			st.commits += uint64(len(group))
			committed = append(committed, group...)
			continue
		}
		// Roll the gang's partial claims back to the exact saved states
		// (singleton groups apply atomically, so applied is 0 here unless
		// this is a gang).
		for _, s := range saves {
			h := next.Hosts[s.idx]
			h.FreePCPUs = s.free
			h.IOCommitted = s.io
			h.VMs = h.VMs[:s.vms]
		}
		st.conflicts += uint64(len(group))
		conflicted = append(conflicted, group...)
	}
	st.committed, st.conflicted = committed, conflicted
	if len(committed) > 0 {
		// Publish the clones with their VMs clipped, and remember the
		// full arrays for the next commit. A round that commits nothing
		// installs nothing: its clones are dropped, and the appends it made
		// past a published len are invisible, so spare stays valid.
		for _, idx := range st.touched {
			h := next.Hosts[idx]
			st.spare[idx] = h.VMs
			h.VMs = slices.Clip(h.VMs)
		}
		st.snap = next
	}
	return committed, conflicted
}

// hostIndex finds a node in a Node-sorted host slice (-1 if absent).
func hostIndex(hosts []*HostInfo, node int) int {
	lo, hi := 0, len(hosts)
	for lo < hi {
		mid := (lo + hi) / 2
		if hosts[mid].Node < node {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(hosts) && hosts[lo].Node == node {
		return lo
	}
	return -1
}
