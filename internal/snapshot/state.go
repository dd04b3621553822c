package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"resex/internal/cluster"
	"resex/internal/exchange"
	"resex/internal/faults"
	"resex/internal/hca"
	"resex/internal/ibmon"
	"resex/internal/invariant"
	"resex/internal/placement"
	"resex/internal/resex"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/simpar"
	"resex/internal/workload"
	"resex/internal/xen"
)

// HostState pairs one host's hypervisor and adapter exports.
type HostState struct {
	Xen xen.State `json:"xen"`
	HCA hca.State `json:"hca"`
}

// State is one engine's full deterministic export at the capture point:
// every subsystem's Checkpoint() output, gathered in host order. Two runs of
// the same seeded inputs that agree on this struct (byte-for-byte as
// canonical JSON) have the same queue contents, RNG positions, ledgers, and
// accumulators — which, by determinism, pins all of their remaining output.
type State struct {
	Engine   sim.EngineState         `json:"engine"`
	Hosts    []HostState             `json:"hosts,omitempty"`
	Managers []resex.State           `json:"managers,omitempty"`
	Monitors []ibmon.State           `json:"monitors,omitempty"`
	Faults   *faults.State           `json:"faults,omitempty"`
	Workload *workload.State         `json:"workload,omitempty"`
	Fleet    *placement.State        `json:"fleet,omitempty"`
	Sched    *schedshard.State       `json:"schedshard,omitempty"`
	SimPar   *simpar.HostState       `json:"simpar,omitempty"`
	Auditor  *invariant.AuditorState `json:"auditor,omitempty"`
	Exchange []exchange.State        `json:"exchange,omitempty"`
}

// Source enumerates a rig's observable objects: the one list both pure
// observers read. Capture exports it and Audit attaches an invariant auditor
// over it. All fields are optional and filled per rig (testbed runs have
// hosts and managers, fleet runs add monitors and placements, workload runs
// add tenants, fault runs add the injector cursor, audited runs add the
// auditor); the engine itself is supplied at capture time by the armed
// breakpoint. Trade books are not listed: both observers derive them from
// Managers (resex.Books).
type Source struct {
	TB       *cluster.Testbed
	Managers []*resex.Manager
	Monitors []*ibmon.Monitor
	Workload *workload.Engine
	Fleet    *placement.Fleet
	Sched    *schedshard.Scheduler
	Injector *faults.Injector
	Auditor  *invariant.Auditor
	// SimPar is the engine's simpar host in a sharded run. Its exported
	// state is shard-invariant by construction (see simpar.HostState), so
	// bundles stay byte-identical at any Options.SimShards width.
	SimPar *simpar.Host
}

// ForWorkload lists a workload engine's rig: its hosts, managers, monitors
// and tenants.
func ForWorkload(e *workload.Engine) *Source {
	return &Source{TB: e.TB, Managers: e.Mgrs, Monitors: e.Mons, Workload: e}
}

// ForFleet lists a placement fleet's rig: its hosts, per-host managers and
// monitors, and its placement bindings.
func ForFleet(f *placement.Fleet) *Source {
	return &Source{TB: f.TB, Managers: f.Mgrs, Monitors: f.Mons, Fleet: f}
}

// Audit attaches an invariant auditor to eng over the source's objects:
// every testbed host's hypervisor and adapter, each non-nil manager, the
// managers' trade books, the workload's SLO ledgers and the shard
// scheduler's bind log. It sets s.Auditor, so a later capture exports the
// auditor's accumulators (an audited capture must be restored under audit,
// and vice versa). Monitors, the fleet, the injector and the simpar host
// are exported but not audited.
func (s *Source) Audit(eng *sim.Engine, col *invariant.Collector) *invariant.Auditor {
	a := invariant.New(eng, col)
	if s.TB != nil {
		for _, h := range s.TB.Hosts {
			a.WatchXen(h.HV)
			a.WatchHCA(h.HCA)
		}
	}
	for _, m := range s.Managers {
		if m != nil {
			a.WatchManager(m)
		}
	}
	for _, bk := range resex.Books(s.Managers) {
		a.WatchBook(bk)
	}
	if s.Workload != nil {
		a.WatchWorkload(s.Workload)
	}
	if s.Sched != nil {
		a.WatchSched(s.Sched)
	}
	s.Auditor = a
	return a
}

// Capture exports the source's full state under eng. Pure observer: it
// only calls the per-package Checkpoint() observers, so capturing cannot
// perturb the run it captures.
func (s Source) Capture(eng *sim.Engine) State {
	st := State{Engine: eng.Checkpoint()}
	if s.TB != nil {
		for _, h := range s.TB.Hosts {
			st.Hosts = append(st.Hosts, HostState{Xen: h.HV.Checkpoint(), HCA: h.HCA.Checkpoint()})
		}
	}
	for _, m := range s.Managers {
		if m != nil {
			st.Managers = append(st.Managers, m.Checkpoint())
		}
	}
	for _, mon := range s.Monitors {
		if mon != nil {
			st.Monitors = append(st.Monitors, mon.Checkpoint())
		}
	}
	if s.Injector != nil {
		fs := s.Injector.Checkpoint()
		st.Faults = &fs
	}
	if s.Workload != nil {
		ws := s.Workload.Checkpoint()
		st.Workload = &ws
	}
	if s.Fleet != nil {
		ps := s.Fleet.Checkpoint()
		st.Fleet = &ps
	}
	if s.Sched != nil {
		ss := s.Sched.Checkpoint()
		st.Sched = &ss
	}
	if s.SimPar != nil {
		sp := s.SimPar.Checkpoint()
		st.SimPar = &sp
	}
	if s.Auditor != nil {
		as := s.Auditor.Checkpoint()
		st.Auditor = &as
	}
	for _, bk := range resex.Books(s.Managers) {
		st.Exchange = append(st.Exchange, bk.Checkpoint())
	}
	return st
}

// sections lists the top-level State fields by name, for mismatch
// diagnostics that point at the diverging subsystem instead of dumping two
// multi-kilobyte JSON blobs.
func (st State) sections() []struct {
	name string
	v    any
} {
	return []struct {
		name string
		v    any
	}{
		{"engine", st.Engine},
		{"hosts", st.Hosts},
		{"managers", st.Managers},
		{"monitors", st.Monitors},
		{"faults", st.Faults},
		{"workload", st.Workload},
		{"fleet", st.Fleet},
		{"schedshard", st.Sched},
		{"simpar", st.SimPar},
		{"auditor", st.Auditor},
		{"exchange", st.Exchange},
	}
}

// Diverging compares two state exports section by section and returns the
// names of the diverging sections (nil when byte-identical as canonical
// JSON). The daemon uses it to verify a replayed session against its
// snapshot; the experiment plans use the same comparison internally.
func Diverging(got, want State) []string { return diff(got, want) }

// diff compares two states section by section and returns the names of the
// diverging sections (nil when byte-identical as canonical JSON).
func diff(got, want State) []string {
	g, w := got.sections(), want.sections()
	var bad []string
	for i := range g {
		gj, _ := json.Marshal(g[i].v)
		wj, _ := json.Marshal(w[i].v)
		if string(gj) != string(wj) {
			bad = append(bad, g[i].name)
		}
	}
	return bad
}

// Plan coordinates snapshot capture or verification across every engine a
// run builds. One Plan spans a whole resexsim invocation (all sweep points,
// any -parallel width): engines register via Arm, which assigns each a
// deterministic Key{PointSeed, Ordinal} — the point's derived seed plus a
// per-point build counter — so the capture run and the replaying restore
// run agree on numbering without coordination.
//
// In capture mode the armed breakpoint exports the engine's state at T into
// the plan. In verify mode it exports the same state and compares it
// byte-for-byte (as canonical JSON) against the recorded snapshot for its
// key; any divergence, missing key, or leftover key surfaces through Err.
// Engines whose runs end before T never fire — symmetric in both modes, so
// such engines simply have no snapshot entry.
//
// A watch plan (NewWatch) records nothing: it hands each armed engine's
// source to a callback every period, for live views such as resextop.
type Plan struct {
	at     sim.Time
	verify bool
	// watch, when set, makes at a period: the armed breakpoint calls watch
	// and re-arms itself at now+at instead of capturing.
	watch func(Key, *sim.Engine, *Source)

	mu       sync.Mutex
	ordinals map[int64]int
	snaps    []Snapshot
	want     map[Key]*Snapshot
	used     map[Key]bool
	errs     []string
}

// NewCapture returns a plan that captures every armed engine's state at
// virtual time at.
func NewCapture(at sim.Time) *Plan {
	return &Plan{at: at, ordinals: make(map[int64]int)}
}

// NewVerify returns a plan that re-captures at the bundle's recorded T and
// verifies each engine against its stored snapshot.
func NewVerify(b *Bundle) *Plan {
	p := &Plan{
		at:       sim.Time(b.Meta.SnapshotAtNs),
		verify:   true,
		ordinals: make(map[int64]int),
		want:     make(map[Key]*Snapshot, len(b.Snaps)),
		used:     make(map[Key]bool, len(b.Snaps)),
	}
	for i := range b.Snaps {
		s := &b.Snaps[i]
		if _, dup := p.want[s.Key]; dup {
			p.fail(fmt.Sprintf("duplicate snapshot key %+v in bundle", s.Key))
			continue
		}
		p.want[s.Key] = s
	}
	return p
}

// NewWatch returns a plan that calls fn(key, eng, src) on every armed
// engine at every, 2·every, ... of virtual time after arming, until the
// engine's run ends. Its breakpoint re-arms itself and consumes no seq
// number, so a watched run executes event for event like an unwatched one
// as long as fn only reads. It records nothing: Bundle fails and Err is
// nil.
func NewWatch(every sim.Time, fn func(Key, *sim.Engine, *Source)) *Plan {
	if every <= 0 {
		panic("snapshot: NewWatch requires a positive period")
	}
	return &Plan{at: every, watch: fn, ordinals: make(map[int64]int)}
}

// Arm registers one engine: a seq-neutral breakpoint at T that captures (or
// verifies) the source's state, or on a watch plan one every period that
// passes the source to the watch. Must be called before the engine runs past
// T. The source is read when the breakpoint fires, so callers may keep
// filling fields (e.g. a fault injector built later in setup) after arming.
// Safe for concurrent use across sweep points; within one point, arm
// engines in build order (points build engines sequentially, so this is the
// natural order).
func (p *Plan) Arm(eng *sim.Engine, pointSeed int64, src *Source) {
	p.mu.Lock()
	ord := p.ordinals[pointSeed]
	p.ordinals[pointSeed] = ord + 1
	p.mu.Unlock()
	key := Key{PointSeed: pointSeed, Ordinal: ord}
	if src == nil {
		src = &Source{}
	}
	if p.watch != nil {
		var tick func()
		tick = func() {
			p.watch(key, eng, src)
			eng.Breakpoint(eng.Now()+p.at, tick)
		}
		eng.Breakpoint(eng.Now()+p.at, tick)
		return
	}
	eng.Breakpoint(p.at, func() {
		p.record(key, int64(eng.Now()), src.Capture(eng))
	})
}

func (p *Plan) record(key Key, atNs int64, st State) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.verify {
		p.snaps = append(p.snaps, Snapshot{Key: key, AtNs: atNs, State: st})
		return
	}
	want, ok := p.want[key]
	if !ok {
		p.errs = append(p.errs, fmt.Sprintf("engine %+v reached T on replay but has no recorded snapshot", key))
		return
	}
	if p.used[key] {
		p.errs = append(p.errs, fmt.Sprintf("engine %+v captured twice on replay", key))
		return
	}
	p.used[key] = true
	if atNs != want.AtNs {
		p.errs = append(p.errs, fmt.Sprintf("engine %+v fired at %dns, recorded %dns", key, atNs, want.AtNs))
	}
	if bad := diff(st, want.State); len(bad) > 0 {
		p.errs = append(p.errs, fmt.Sprintf("engine %+v diverged from recorded snapshot in: %s", key, strings.Join(bad, ", ")))
	}
}

func (p *Plan) fail(msg string) {
	p.mu.Lock()
	p.errs = append(p.errs, msg)
	p.mu.Unlock()
}

// Bundle assembles the captured snapshots (sorted by key) under the given
// meta. Capture mode only.
func (p *Plan) Bundle(meta Meta) (*Bundle, error) {
	if p.verify || p.watch != nil {
		return nil, errors.New("snapshot: Bundle called on a verify or watch plan")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.snaps) == 0 {
		return nil, fmt.Errorf("snapshot: no engine reached T=%dns (run too short?)", int64(p.at))
	}
	snaps := make([]Snapshot, len(p.snaps))
	copy(snaps, p.snaps)
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].Key.PointSeed != snaps[j].Key.PointSeed {
			return snaps[i].Key.PointSeed < snaps[j].Key.PointSeed
		}
		return snaps[i].Key.Ordinal < snaps[j].Key.Ordinal
	})
	meta.SnapshotAtNs = int64(p.at)
	return &Bundle{Meta: meta, Snaps: snaps}, nil
}

// Err reports the verification outcome: nil when every recorded snapshot
// was re-captured and matched byte-for-byte. Call after the run completes.
func (p *Plan) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	errs := append([]string(nil), p.errs...)
	if p.verify {
		var missing []Key
		for k := range p.want {
			if !p.used[k] {
				missing = append(missing, k)
			}
		}
		sort.Slice(missing, func(i, j int) bool {
			if missing[i].PointSeed != missing[j].PointSeed {
				return missing[i].PointSeed < missing[j].PointSeed
			}
			return missing[i].Ordinal < missing[j].Ordinal
		})
		for _, k := range missing {
			errs = append(errs, fmt.Sprintf("recorded snapshot %+v was never re-captured on replay", k))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("snapshot: verification failed:\n  %s", strings.Join(errs, "\n  "))
}
