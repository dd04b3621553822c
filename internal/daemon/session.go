// Package daemon implements resexd's deterministic session core: a
// long-running multi-tenant simulation advanced in fixed quanta of virtual
// time, with live control commands applied only at quantum boundaries and
// stamped into a replayable command log.
//
// The quantum discipline is what makes a live-controlled session a
// reproducible artifact. Between boundaries the simulation is a pure
// function of its inputs; a command's effect depends only on *which*
// boundary it lands on, never on wall-clock arrival time. A session is
// therefore fully pinned by (config, command log), and a snapshot — the
// generative inputs plus a full state export at the capture boundary —
// restores by rebuilding, replaying the log, and verifying the replayed
// state byte-for-byte (see internal/snapshot).
//
// A session has one view, the Telemetry sample: the server streams it to
// watchers, answers the status verb with it, and Telemetry.WriteText
// prints it for resexctl status and every resextop mode. resextop -fig
// builds the same sample for experiment engines from the same row
// constructors (VMRow, TenantRows, MarketRows).
package daemon

import (
	"encoding/json"
	"fmt"
	"strings"

	"resex/internal/exchange"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// DefaultQuantum is the virtual time one Step advances: 100 ms, matching
// resextop's refresh and giving commands sub-epoch placement granularity.
const DefaultQuantum = 100 * sim.Millisecond

// TenantConfig declares one tenant of a session.
type TenantConfig struct {
	Name string `json:"name"`
	// Class picks the traffic shape: "latency" (closed-loop, SLO-backed,
	// latency-sensitive), "bulk" (bursty 2 MB mover), or "open" (open-loop
	// Poisson at Rate req/s, SLO-backed).
	Class string `json:"class"`
	// Rate is the open class's arrival rate (req/s). Default 500.
	Rate float64 `json:"rate,omitempty"`
}

// DefaultTenants is the default session's tenant list, lat:latency and
// bulk:bulk: a closed-loop latency tenant against a bursty 2 MB bulk one.
func DefaultTenants() []TenantConfig {
	return []TenantConfig{{Name: "lat", Class: "latency"}, {Name: "bulk", Class: "bulk"}}
}

// Config is a session's generative input: everything New needs to rebuild
// the identical rig. It travels in snapshot metadata, so all fields must be
// JSON-stable.
type Config struct {
	Seed  int64 `json:"seed"`
	Hosts int   `json:"hosts,omitempty"` // worker hosts, default 1
	// Policy is the initial pricing policy: "none" (passive: telemetry
	// flows, charging at rate 1, caps lifted), "freemarket", "ioshares" or
	// "fungible" (congestion-priced cross-dimension entitlement trading).
	// Sessions are always managed so policy swaps need no rewiring.
	Policy string `json:"policy,omitempty"`
	// QuantumNs is the virtual step size. Default 100 ms.
	QuantumNs int64 `json:"quantum_ns,omitempty"`
	// SimShards is a sharded-simulation worker width. A session runs one
	// engine, so nothing reads it; it stays because snapshot metadata
	// carries it (as 1, its default) and bench/golden.json hashes that
	// metadata. Drop it at the next snapshot-format re-pin.
	SimShards int `json:"sim_shards,omitempty"`
	// Tenants are booted before virtual time zero.
	Tenants []TenantConfig `json:"tenants,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Hosts <= 0 {
		c.Hosts = 1
	}
	if c.SimShards <= 0 {
		c.SimShards = 1
	}
	if c.Policy == "" {
		c.Policy = "none"
	}
	if c.QuantumNs <= 0 {
		c.QuantumNs = int64(DefaultQuantum)
	}
	return c
}

// Command is the wire form of every resexd control verb. State commands
// (add-tenant, remove-tenant, policy) mutate the session and enter the
// replay log; the rest are pacing and I/O verbs the server interprets.
type Command struct {
	Cmd string `json:"cmd"`
	// Name names a tenant (add-tenant, remove-tenant) or policy (policy).
	Name string `json:"name,omitempty"`
	// Class and Rate parameterize add-tenant.
	Class string  `json:"class,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
	// Path targets snapshot/restore files.
	Path string `json:"path,omitempty"`
	// N counts quanta for step.
	N int64 `json:"n,omitempty"`
	// TNs is run-until's virtual target (ns).
	TNs int64 `json:"t_ns,omitempty"`
}

// ParseCommand decodes one wire command strictly.
func ParseCommand(raw []byte) (Command, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var c Command
	if err := dec.Decode(&c); err != nil {
		return Command{}, fmt.Errorf("daemon: bad command: %w", err)
	}
	if c.Cmd == "" {
		return Command{}, fmt.Errorf("daemon: command missing \"cmd\"")
	}
	return c, nil
}

// Session is the deterministic core: the rig plus the quantum cursor and
// command log. It performs no I/O and knows nothing of sockets — the server
// layers pacing and transport on top.
type Session struct {
	cfg Config
	wl  *workload.Engine
	log []snapshot.LogEntry

	epoch     int64 // completed quanta
	tenantSeq int64 // tenants ever added; seeds live adds deterministically
}

// New builds a session: an always-managed workload rig under the configured
// policy, initial tenants booted, drivers started, virtual clock at zero.
func New(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	pol, err := workload.Policy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg}
	s.wl = workload.New(workload.Config{
		Hosts:       cfg.Hosts,
		ClientPCPUs: 8 * cfg.Hosts,
		Policy:      pol,
	})
	for _, tc := range cfg.Tenants {
		if err := s.addTenant(tc); err != nil {
			return nil, err
		}
	}
	s.wl.Start()
	return s, nil
}

// Workload exposes the rig for telemetry readers.
func (s *Session) Workload() *workload.Engine { return s.wl }

// Now returns the virtual clock.
func (s *Session) Now() sim.Time { return s.wl.TB.Eng.Now() }

// Epoch returns the number of completed quanta.
func (s *Session) Epoch() int64 { return s.epoch }

// Quantum returns the virtual step size.
func (s *Session) Quantum() sim.Time { return sim.Time(s.cfg.QuantumNs) }

// Log returns the replayable command log (state commands only), in
// application order.
func (s *Session) Log() []snapshot.LogEntry {
	return append([]snapshot.LogEntry(nil), s.log...)
}

// Step advances exactly one quantum of virtual time.
func (s *Session) Step() {
	eng := s.wl.TB.Eng
	eng.RunUntil(eng.Now() + s.Quantum())
	s.epoch++
}

// tenantSpec maps a tenant class to its catalog spec. Seeds derive from
// (session seed, tenant ordinal), so the same config + log always yields the
// same arrival streams regardless of when commands arrived in wall time.
func (s *Session) tenantSpec(tc TenantConfig) (workload.TenantSpec, error) {
	seed := s.cfg.Seed + 1000*s.tenantSeq + 1
	switch strings.ToLower(tc.Class) {
	case "latency":
		return workload.LatencyTenant(tc.Name, seed), nil
	case "bulk":
		return workload.BulkTenant(tc.Name, seed), nil
	case "open":
		rate := tc.Rate
		if rate <= 0 {
			rate = 500
		}
		return workload.OpenTenant(tc.Name, rate, seed), nil
	}
	return workload.TenantSpec{}, fmt.Errorf("daemon: unknown tenant class %q (latency, bulk, open)", tc.Class)
}

func (s *Session) addTenant(tc TenantConfig) error {
	if tc.Name == "" {
		return fmt.Errorf("daemon: add-tenant needs a name")
	}
	for _, t := range s.wl.Tenants() {
		if t.Spec.Name == tc.Name {
			return fmt.Errorf("daemon: tenant %q already exists", tc.Name)
		}
	}
	spec, err := s.tenantSpec(tc)
	if err != nil {
		return err
	}
	if _, err := s.wl.AddTenant(spec); err != nil {
		return err
	}
	s.tenantSeq++
	return nil
}

// Apply executes one state command at the current quantum boundary and, on
// success, stamps it into the replay log. Non-state verbs are rejected —
// pacing and snapshot I/O belong to the server, not the deterministic core.
func (s *Session) Apply(c Command) error {
	var err error
	switch c.Cmd {
	case "add-tenant":
		err = s.addTenant(TenantConfig{Name: c.Name, Class: c.Class, Rate: c.Rate})
	case "remove-tenant":
		err = s.wl.StopTenant(c.Name)
	case "policy":
		var mk func() resex.Policy
		if mk, err = workload.Policy(c.Name); err == nil {
			for _, m := range s.wl.Mgrs {
				m.SwapPolicyAtEpoch(mk())
			}
		}
	default:
		return fmt.Errorf("daemon: %q is not a session command", c.Cmd)
	}
	if err != nil {
		return err
	}
	wire, _ := json.Marshal(c)
	s.log = append(s.log, snapshot.LogEntry{
		Idx:  s.epoch,
		AtNs: int64(s.Now()),
		Cmd:  wire,
	})
	return nil
}

// Books returns the hosts' trade books in manager order — empty unless the
// active policy keeps one (Fungible).
func (s *Session) Books() []*exchange.Book { return resex.Books(s.wl.Mgrs) }

// Snapshot captures the session at the current quantum boundary: the
// original config (Apply never mutates it — swaps and live tenants travel
// in the log), the full command log, and the state export. The returned
// bundle restores via Restore.
func (s *Session) Snapshot() *snapshot.Bundle {
	cfg := s.cfg
	cfgJSON, _ := json.Marshal(cfg)
	now := int64(s.Now())
	return &snapshot.Bundle{
		Meta: snapshot.Meta{
			Kind:         "daemon",
			Seed:         cfg.Seed,
			SnapshotAtNs: now,
			Config:       cfgJSON,
		},
		Log: s.Log(),
		Snaps: []snapshot.Snapshot{{
			Key:   snapshot.Key{PointSeed: cfg.Seed},
			AtNs:  now,
			State: snapshot.ForWorkload(s.wl).Capture(s.wl.TB.Eng),
		}},
	}
}

// PolicyName reports the pricing policy currently governing the hosts.
// Sessions are always managed, so host 0 has a manager.
func (s *Session) PolicyName() string { return s.wl.Mgrs[0].Policy().Name() }

// Restore rebuilds a session from a daemon snapshot: construct from the
// recorded config, replay the command log at its recorded quantum
// boundaries while stepping to the capture point, then verify the replayed
// state byte-for-byte against the export. Divergence is an error.
func Restore(b *snapshot.Bundle) (*Session, error) {
	if b.Meta.Kind != "daemon" {
		return nil, fmt.Errorf("daemon: snapshot kind %q is not a daemon session", b.Meta.Kind)
	}
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(b.Meta.Config)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("daemon: snapshot config: %w", err)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	target := sim.Time(b.Meta.SnapshotAtNs)
	li := 0
	for {
		for li < len(b.Log) && b.Log[li].Idx == s.epoch {
			c, err := ParseCommand(b.Log[li].Cmd)
			if err != nil {
				return nil, fmt.Errorf("daemon: replay log[%d]: %w", li, err)
			}
			if err := s.Apply(c); err != nil {
				return nil, fmt.Errorf("daemon: replay log[%d] (%s): %w", li, c.Cmd, err)
			}
			li++
		}
		if s.Now() >= target {
			break
		}
		s.Step()
	}
	if li < len(b.Log) {
		return nil, fmt.Errorf("daemon: %d log entries beyond the capture point", len(b.Log)-li)
	}
	if s.Now() != target {
		return nil, fmt.Errorf("daemon: replay landed at %v, snapshot captured at %v (quantum mismatch?)", s.Now(), target)
	}
	if len(b.Snaps) != 1 {
		return nil, fmt.Errorf("daemon: snapshot holds %d engine exports, want 1", len(b.Snaps))
	}
	got := snapshot.ForWorkload(s.wl).Capture(s.wl.TB.Eng)
	if bad := snapshot.Diverging(got, b.Snaps[0].State); len(bad) > 0 {
		return nil, fmt.Errorf("daemon: replayed state diverges from snapshot in: %s", strings.Join(bad, ", "))
	}
	return s, nil
}

// Shutdown stops the rig's simulation processes.
func (s *Session) Shutdown() { s.wl.Shutdown() }
