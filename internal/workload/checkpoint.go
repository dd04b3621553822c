package workload

import "resex/internal/sim"

// TenantState is one tenant's deterministic state export: traffic counters,
// the queue/in-flight cursor, the arrival process position (next due time
// plus RNG stream positions — math/rand state is not exportable, but for a
// seeded stream (seed, draw count) pins the position exactly), and the raw
// SLO-window bookkeeping.
type TenantState struct {
	Name        string   `json:"name"`
	HostIdx     int      `json:"host_idx"`
	Running     bool     `json:"running"`
	Arrivals    int64    `json:"arrivals"`
	Shed        int64    `json:"shed"`
	Issued      int64    `json:"issued"`
	Completed   int64    `json:"completed"`
	Queued      int      `json:"queued"`
	Inflight    int      `json:"inflight"`
	NextArrival sim.Time `json:"next_arrival"`
	RNGDraws    uint64   `json:"rng_draws"`
	GenSeq      uint64   `json:"gen_seq"`
	GenDraws    uint64   `json:"gen_draws"`
	ResetAt     sim.Time `json:"reset_at"`

	SLOAttained sim.Time `json:"slo_attained"`
	SLOViolated sim.Time `json:"slo_violated"`
	SLOOrigin   sim.Time `json:"slo_origin"`
	SLOLastEval sim.Time `json:"slo_last_eval"`

	LatencyCount int64   `json:"latency_count"`
	LatencySum   float64 `json:"latency_sum"`
	LatencyMax   float64 `json:"latency_max"`
}

// Checkpoint exports the tenant's current state. Pure observer.
func (t *Tenant) Checkpoint() TenantState {
	attained, violated, origin, lastEval := t.SLOAudit()
	return TenantState{
		Name:        t.Spec.Name,
		HostIdx:     t.HostIdx,
		Running:     t.running,
		Arrivals:    t.arrivals,
		Shed:        t.shed,
		Issued:      t.issued,
		Completed:   t.completed,
		Queued:      t.queue.Len(),
		Inflight:    t.outstanding.Len(),
		NextArrival: t.nextArrival,
		RNGDraws:    t.rng.Draws(),
		GenSeq:      t.gen.Seq(),
		GenDraws:    t.gen.Draws(),
		ResetAt:     t.resetAt,

		SLOAttained: attained,
		SLOViolated: violated,
		SLOOrigin:   origin,
		SLOLastEval: lastEval,

		LatencyCount: t.latency.Count(),
		LatencySum:   t.latency.Sum(),
		LatencyMax:   t.latency.Max(),
	}
}

// State is the traffic engine's deterministic state export: every tenant in
// AddTenant order.
type State struct {
	Started bool          `json:"started"`
	Tenants []TenantState `json:"tenants"`
}

// Checkpoint exports the engine's current workload state. Pure observer.
func (e *Engine) Checkpoint() State {
	st := State{Started: e.started}
	for _, t := range e.tenants {
		st.Tenants = append(st.Tenants, t.Checkpoint())
	}
	return st
}
