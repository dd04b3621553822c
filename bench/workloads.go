package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"resex/internal/daemon"
	"resex/internal/exchange"
	"resex/internal/experiments"
	"resex/internal/invariant"
	"resex/internal/sim"
	"resex/internal/snapshot"
)

// A workload is one set of inputs the benchmark runs. setUp is everything a
// fresh process does before its first operation (set-up time is measured
// over it); pass runs the workload's operations once, each through r.op.
// Operations are a closed loop: each starts when the previous one returns.
type workload interface {
	setUp(seed int64) error
	pass(r *run)
}

// workloads are the benchmark's inputs by name. They are chosen to load
// different layers: paper is the simulated event core and fabric, fleet the
// multi-host layers on the two-worker pool, shardsched the placement
// scheduler with no simulated traffic, and daemon the operable session.
var workloads = map[string]workload{
	// The paper's two-host testbed, a 64 KB victim against a 2 MB
	// interferer: the event core and per-MTU fabric arbitration do almost
	// all the work, and the fleet layers none.
	"paper": drivers{
		ids: []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
			"abl-arb", "abl-mech", "abl-events", "abl-capacity", "softrt"},
		opts: experiments.Options{Duration: 80 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Parallel: 1},
	},
	// Multi-host migration, the exchange economy, fault storms and sharded
	// simulation on the two-worker sweep pool, so multi-core cost is
	// measured. The horizon is the shortest the drivers accept: their
	// placement phases and the exchange's settling warm-up are fixed costs.
	"fleet": drivers{
		ids: []string{"abl-placement", "abl-fungible", "abl-faults", "abl-simpar"},
		opts: experiments.Options{Duration: 20 * sim.Millisecond, Warmup: 10 * sim.Millisecond,
			Parallel: 2, ShardWorkers: 2, SimShards: 2},
	},
	// Placement rounds on a 300-host / 7.5k-VM synthetic fleet with no
	// simulated traffic: schedshard scoring is nearly all the work, so this
	// workload moves only when the fleet scheduler does.
	"shardsched": drivers{
		ids:  []string{"abl-shardsched", "abl-scaleset"},
		opts: experiments.Options{Duration: 300 * sim.Millisecond, ShardWorkers: 2},
	},
	// A scripted resexd session: reads (Step) and writes (commands,
	// snapshots, a verified restore), with the exchange under a live policy
	// swap.
	"daemon": session{},
}

// drivers is a workload of registered experiment drivers, run in order at
// fixed options; each driver run is one operation.
type drivers struct {
	ids  []string
	opts experiments.Options
}

func (w drivers) setUp(int64) error {
	for _, id := range w.ids {
		if _, err := experiments.Lookup(id); err != nil {
			return err
		}
	}
	return nil
}

func (w drivers) pass(r *run) {
	for i, id := range w.ids {
		e, _ := experiments.Lookup(id)
		r.op(id, func() error {
			o := w.opts
			// Each driver gets its own stream. With one shared seed, every
			// driver replays the same interferer arrivals, and a pass's cost
			// hinges on that one random sequence: 18% spread across seeds,
			// against 4% with a stream per driver.
			o.Seed = experiments.DeriveSeed(r.seed, i)
			var col *invariant.Collector
			if r.tr != nil {
				col = invariant.NewCollector(invariant.Audit)
				o.Audit = col
			}
			res, err := e.Run(o)
			if err != nil {
				return err
			}
			h := fnv.New64a()
			if err := res.WriteText(h); err != nil {
				return err
			}
			r.observe(id, res)
			if col != nil {
				if err := r.tr.audit(col); err != nil {
					return err
				}
			}
			return r.check(id, h.Sum64())
		})
	}
}

// The daemon session: one host, six tenants, 20 ms quanta. Commands arrive
// as LDJSON lines at fixed quantum boundaries, a snapshot is taken every
// snapshotEvery quanta, and the snapshot taken at restoreAt is restored
// (replayed and verified) at the end of the pass.
const (
	sessionQuanta  = 60
	sessionQuantum = 20 * sim.Millisecond
	snapshotEvery  = 5
	restoreAt      = 20
)

// sessionScript maps a quantum boundary to the command applied there: the
// policy moves through the exchange (fungible) and back while an open-loop
// tenant comes and goes.
var sessionScript = map[int]string{
	10: `{"cmd":"policy","name":"fungible"}`,
	20: `{"cmd":"add-tenant","name":"open2","class":"open","rate":800}`,
	35: `{"cmd":"policy","name":"freemarket"}`,
	45: `{"cmd":"remove-tenant","name":"open2"}`,
	50: `{"cmd":"policy","name":"ioshares"}`,
}

// sessionConfig is the session's generative input. There are two bulk
// tenants because with one, the session's cost is bimodal across seeds:
// IOShares throttles a lone overloaded mover hard at some seeds and not at
// others (22% less work). Two movers saturate the host at every seed.
func sessionConfig(seed int64) daemon.Config {
	return daemon.Config{
		Seed:      seed,
		Policy:    "ioshares",
		QuantumNs: int64(sessionQuantum),
		Tenants: []daemon.TenantConfig{
			{Name: "lat0", Class: "latency"},
			{Name: "lat1", Class: "latency"},
			{Name: "open0", Class: "open", Rate: 2000},
			{Name: "open1", Class: "open", Rate: 2000},
			{Name: "bulk0", Class: "bulk"},
			{Name: "bulk1", Class: "bulk"},
		},
	}
}

// session is the daemon workload. Its operations are new, apply, step,
// snapshot and restore; the pass digest covers the session's telemetry and
// encoded snapshot at every snapshot boundary.
type session struct{}

func (session) setUp(seed int64) error {
	for q, line := range sessionScript {
		if _, err := daemon.ParseCommand([]byte(line)); err != nil {
			return fmt.Errorf("script at quantum %d: %w", q, err)
		}
	}
	s, err := daemon.New(sessionConfig(seed))
	if err != nil {
		return err
	}
	s.Shutdown()
	return nil
}

func (session) pass(r *run) {
	var s *daemon.Session
	if !r.op("new", func() (err error) {
		s, err = daemon.New(sessionConfig(r.seed))
		return err
	}) {
		return
	}
	defer s.Shutdown()
	var a *sessionAudit
	if r.tr != nil {
		a = watchSession(s)
	}
	h := fnv.New64a()
	var saved []byte
	for q := 0; ; q++ {
		if line, ok := sessionScript[q]; ok {
			r.op("apply", func() error {
				c, err := daemon.ParseCommand([]byte(line))
				if err != nil {
					return err
				}
				return s.Apply(c)
			})
		}
		if q > 0 && q%snapshotEvery == 0 {
			r.op("snapshot", func() error {
				var buf bytes.Buffer
				if err := snapshot.Encode(&buf, s.Snapshot()); err != nil {
					return err
				}
				tel, err := json.Marshal(s.Telemetry())
				if err != nil {
					return err
				}
				h.Write(tel)
				h.Write(buf.Bytes())
				r.snapshotBytes = buf.Len()
				if q == restoreAt {
					saved = buf.Bytes()
				}
				return nil
			})
		}
		if q == sessionQuanta {
			break
		}
		r.op("step", func() error {
			s.Step()
			return nil
		})
		if a != nil {
			a.watchBooks(s)
		}
	}
	r.op("restore", func() error {
		if saved == nil {
			return fmt.Errorf("no snapshot was taken at quantum %d", restoreAt)
		}
		b, err := snapshot.Decode(bytes.NewReader(saved))
		if err != nil {
			return err
		}
		rs, err := daemon.Restore(b)
		if err != nil {
			return err
		}
		defer rs.Shutdown()
		if r.tr != nil {
			r.tr.events += float64(rs.Workload().TB.Eng.Steps())
		}
		var again bytes.Buffer
		if err := snapshot.Encode(&again, rs.Snapshot()); err != nil {
			return err
		}
		if !bytes.Equal(again.Bytes(), saved) {
			return fmt.Errorf("restored session re-encodes to %d bytes that differ from the %d-byte snapshot", again.Len(), len(saved))
		}
		return nil
	})
	if a != nil {
		r.op("audit", func() error {
			a.Close()
			return r.tr.audit(a.col)
		})
	}
	r.op("digest", func() error { return r.check("session", h.Sum64()) })
}

// sessionAudit is the invariant auditor of a traced session: every host's
// hypervisor and adapter, the managers, the tenants, and each trade book
// once the fungible policy has created it.
type sessionAudit struct {
	*invariant.Auditor
	col   *invariant.Collector
	books map[*exchange.Book]bool
}

func watchSession(s *daemon.Session) *sessionAudit {
	wl := s.Workload()
	col := invariant.NewCollector(invariant.Audit)
	a := &sessionAudit{Auditor: invariant.New(wl.TB.Eng, col), col: col, books: map[*exchange.Book]bool{}}
	for _, h := range wl.TB.Hosts {
		a.WatchXen(h.HV)
		a.WatchHCA(h.HCA)
	}
	for _, m := range wl.Mgrs {
		a.WatchManager(m)
	}
	a.WatchWorkload(wl)
	a.watchBooks(s)
	return a
}

// watchBooks adds the trade books a policy swap has created since the last
// call.
func (a *sessionAudit) watchBooks(s *daemon.Session) {
	for _, bk := range s.Books() {
		if !a.books[bk] {
			a.books[bk] = true
			a.WatchBook(bk)
		}
	}
}
