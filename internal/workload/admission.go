package workload

import "fmt"

// AdmitState is the snapshot an admission hook sees for each open-loop
// arrival.
type AdmitState struct {
	// QueueLen counts admitted arrivals not yet posted.
	QueueLen int
}

// Admission decides, per open-loop arrival, whether the request enters the
// tenant's queue or is shed on the spot. Shedding trades completed work for
// bounded latency: everything still admitted sees a short queue, and the
// SLO ledger counts the shed arrivals separately.
type Admission interface {
	// Name identifies the policy in reports.
	Name() string
	// Admit returns false to shed the arrival.
	Admit(s AdmitState) bool
}

// AdmitAll is the default policy: never sheds.
type AdmitAll struct{}

// Name implements Admission.
func (AdmitAll) Name() string { return "admit-all" }

// Admit implements Admission.
func (AdmitAll) Admit(AdmitState) bool { return true }

// QueueCap sheds arrivals once the client backlog reaches Max — the classic
// bounded-queue load shedder. Under sustained overload it converts unbounded
// queueing delay into a constant shed rate.
type QueueCap struct {
	Max int
}

// Name implements Admission.
func (q QueueCap) Name() string { return fmt.Sprintf("queue-cap(%d)", q.Max) }

// Admit implements Admission.
func (q QueueCap) Admit(s AdmitState) bool { return s.QueueLen < q.Max }
