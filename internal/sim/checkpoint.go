package sim

import "sort"

// EventKey is the ordering key of one pending one-shot event. Two runs that
// executed the same history hold byte-identical key sets, which is what the
// snapshot verifier compares.
type EventKey struct {
	At  Time   `json:"at"`
	Seq uint64 `json:"seq"`
}

// PeriodicState is one recurring timer's next occurrence.
type PeriodicState struct {
	Period  Time   `json:"period"`
	NextAt  Time   `json:"next_at"`
	Seq     uint64 `json:"seq"`
	Stopped bool   `json:"stopped"`
}

// EngineState is the engine's deterministic state export: the clock, the
// step and seq counters, every pending one-shot's (at, seq) key, the
// heap's, the delay queues' and the segments' alike, in (at, seq) order,
// the recurring timers, and the slab pool's occupancy. Callbacks are Go
// closures and cannot be serialized — restoring an engine means
// deterministically replaying the run that produced it — so this export
// exists to *prove* a replay landed in the same state, not to resurrect
// one structurally.
type EngineState struct {
	Now        Time            `json:"now"`
	Steps      uint64          `json:"steps"`
	Seq        uint64          `json:"seq"`
	Events     []EventKey      `json:"events"`
	Wheel      []PeriodicState `json:"wheel"`
	FreeEvents int             `json:"free_events"`
	Procs      int             `json:"procs"`
}

// Checkpoint exports the engine's current state. It is a pure observer:
// calling it never changes event ordering, timers, or the pool.
func (e *Engine) Checkpoint() EngineState {
	st := EngineState{
		Now:        e.now,
		Steps:      e.stepped,
		Seq:        e.seq,
		FreeEvents: len(e.free),
		Procs:      len(e.procs),
	}
	st.Events = make([]EventKey, 0, len(e.events))
	for _, ev := range e.events {
		if !ev.periodic {
			st.Events = append(st.Events, EventKey{At: ev.at, Seq: ev.seq})
		}
	}
	for _, q := range e.delays {
		for i := 0; i < q.q.Len(); i++ {
			ev := q.q.At(i)
			st.Events = append(st.Events, EventKey{At: ev.at, Seq: ev.seq})
		}
	}
	for _, g := range e.segs {
		for _, l := range g.lanes {
			for i := 0; i < l.q.Len(); i++ {
				ev := l.q.At(i)
				st.Events = append(st.Events, EventKey{At: ev.at, Seq: ev.seq})
			}
		}
	}
	sort.Slice(st.Events, func(i, j int) bool {
		if st.Events[i].At != st.Events[j].At {
			return st.Events[i].At < st.Events[j].At
		}
		return st.Events[i].Seq < st.Events[j].Seq
	})
	st.Wheel = make([]PeriodicState, 0, len(e.pers))
	for _, p := range e.pers {
		st.Wheel = append(st.Wheel, PeriodicState{
			Period: p.period, NextAt: p.ev.at, Seq: p.ev.seq, Stopped: p.stopped,
		})
	}
	return st
}
