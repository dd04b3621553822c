package daemon

// Telemetry is one per-quantum sample of the session, streamed to watchers
// as a line of JSON. The columns mirror resextop's table: the manager's
// per-VM pricing view plus per-tenant traffic and SLO figures.
type Telemetry struct {
	AtNs   int64  `json:"at_ns"`
	Epoch  int64  `json:"epoch"`
	Policy string `json:"policy"`
	// Paused is stamped by the server: true when the sample was emitted at
	// a held boundary rather than after a step.
	Paused  bool         `json:"paused,omitempty"`
	VMs     []VMStat     `json:"vms,omitempty"`
	Tenants []TenantStat `json:"tenants,omitempty"`
}

// VMStat is one managed VM's pricing state.
type VMStat struct {
	Name   string  `json:"name"`
	Rate   float64 `json:"rate"`
	CapPct int     `json:"cap_pct,omitempty"`
	Resos  int64   `json:"resos"`
	// MTURate is the VM's smoothed MTU count per ResEx interval
	// (resex.ManagedVM.MTURate), not per second.
	MTURate    float64 `json:"mtu_rate"`
	Confidence float64 `json:"confidence"`
	Interfered bool    `json:"interfered,omitempty"`
}

// TenantStat is one tenant's cumulative traffic and SLO state.
type TenantStat struct {
	Name            string  `json:"name"`
	Running         bool    `json:"running"`
	OfferedPerSec   float64 `json:"offered_per_sec"`
	CompletedPerSec float64 `json:"completed_per_sec"`
	Inflight        int     `json:"inflight"`
	Queued          int     `json:"queued"`
	P99             float64 `json:"p99_us"`
	AttainPct       float64 `json:"slo_attain_pct"`
}

// Telemetry samples the session at the current boundary. Pure observer.
func (s *Session) Telemetry() Telemetry {
	t := Telemetry{
		AtNs:   int64(s.Now()),
		Epoch:  s.epoch,
		Policy: s.PolicyName(),
	}
	for _, m := range s.wl.Mgrs {
		for _, vm := range m.VMs() {
			t.VMs = append(t.VMs, VMStat{
				Name:       vm.Dom.Name(),
				Rate:       vm.Rate(),
				CapPct:     vm.Dom.Cap(),
				Resos:      int64(vm.Account.Balance()),
				MTURate:    vm.MTURate(),
				Confidence: vm.Confidence(),
				Interfered: vm.Interfered(),
			})
		}
	}
	for _, tn := range s.wl.Tenants() {
		st := tn.Stats()
		t.Tenants = append(t.Tenants, TenantStat{
			Name:            tn.Spec.Name,
			Running:         tn.Running(),
			OfferedPerSec:   st.OfferedPerSec,
			CompletedPerSec: st.CompletedPerSec,
			Inflight:        st.Inflight,
			Queued:          st.Queued,
			P99:             st.P99,
			AttainPct:       st.AttainPct,
		})
	}
	return t
}
