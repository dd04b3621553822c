package simpar

import "sort"

// MessageKey is the canonical identity of one in-flight cross-host
// message: delivery time, source host, per-source send counter. The
// payload closure is not serializable — but it never needs to be, because
// restore is replay-based: rebuilding the run from its generative inputs
// regenerates the identical messages, and the keys prove it.
type MessageKey struct {
	AtNs int64  `json:"at_ns"`
	Src  int    `json:"src"`
	Seq  uint64 `json:"seq"`
}

// HostState is one host's shard-invariant coordinator state: the send
// counter plus the keys of every message pending against it (merged but
// undelivered) and leaving it (sent this window, not yet merged). It is
// deliberately free of anything shard-shaped — no shard id, no shard
// count, no worker count — because those are wall-clock knobs: a snapshot
// bundle must be byte-identical at 1 and at 8 window workers, and a
// restore may replay under a different shard map than the capture ran.
type HostState struct {
	ID int `json:"id"`
	// LookaheadNs is the synchronization contract the state was captured
	// under. It is derived from the interconnect topology (not the shard
	// map), so it is identical at any shard count.
	LookaheadNs int64        `json:"lookahead_ns"`
	SendSeq     uint64       `json:"send_seq"`
	Inbox       []MessageKey `json:"inbox,omitempty"`
	Outbox      []MessageKey `json:"outbox,omitempty"`
}

// Checkpoint exports the host's coordinator-facing state. Pure observer:
// safe to call from a snapshot breakpoint firing on this host's engine
// mid-window — everything it reads is owned by the goroutine currently
// executing this host.
func (h *Host) Checkpoint() HostState {
	st := HostState{
		ID:          h.id,
		LookaheadNs: int64(h.co.cfg.Lookahead),
		SendSeq:     h.seq,
	}
	for _, m := range h.inbox {
		st.Inbox = append(st.Inbox, MessageKey{AtNs: int64(m.At), Src: m.Src, Seq: m.Seq})
	}
	// The heap array's layout is itself deterministic (every push and pop
	// happens in canonical order), but export sorted anyway so the wire
	// format is defined by the message identities, not the heap shape.
	sort.Slice(st.Inbox, func(i, j int) bool {
		a, b := st.Inbox[i], st.Inbox[j]
		if a.AtNs != b.AtNs {
			return a.AtNs < b.AtNs
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	for _, m := range h.out {
		st.Outbox = append(st.Outbox, MessageKey{AtNs: int64(m.At), Src: m.Src, Seq: m.Seq})
	}
	return st
}
