package invariant

// AuditorState is a live auditor's accumulator export: how many events its
// sampled step hook observed, how many predicate evaluations ran, the last
// sampled (at, seq) key, and per-checker violation counts so far. Captured
// mid-run (before Close merges into the Collector) so a snapshot of an
// audited run pins the auditor's position too.
type AuditorState struct {
	Events  uint64           `json:"events"`
	Checks  uint64           `json:"checks"`
	LastAt  int64            `json:"last_at"`
	LastSeq uint64           `json:"last_seq"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// Checkpoint exports the auditor's current accumulators. Pure observer.
func (a *Auditor) Checkpoint() AuditorState {
	st := AuditorState{
		Events:  a.eng.Steps() - a.steps0,
		Checks:  a.checks,
		LastAt:  int64(a.lastAt),
		LastSeq: a.lastSeq,
	}
	if len(a.counts) > 0 {
		st.Counts = make(map[string]int64, len(a.counts))
		for k, n := range a.counts {
			st.Counts[k] = n
		}
	}
	return st
}
