// Package faults is the deterministic fault-injection subsystem: a seeded
// Schedule of typed fault events fired at exact simulation times against the
// substrate an Injector has been attached to — fabric links, HCAs, IBMon
// monitors — plus time windows the placement layer consults for migration
// pre-copy failures.
//
// Everything the paper's control stack believes is inferred: IBMon samples
// lossy rings, ResEx throttles on those samples, the placement fleet
// migrates on ResEx epoch summaries. This package supplies the ways those
// beliefs go wrong — degraded and flapping links, completion stalls that
// force CQ overruns, invalidated introspection mappings, whole-host
// telemetry blackouts, failing pre-copies — so the degraded-mode behavior of
// every consumer can be exercised and regression-tested. Determinism is
// load-bearing: a Schedule armed on the same engine with the same seed
// replays byte-identically, so every failure scenario is a reproducible test
// case rather than an anecdote.
//
// The package deliberately sits below the placement layer (it imports
// fabric/hca/ibmon only); placement imports it for the pre-copy windows.
package faults

import (
	"fmt"
	"sort"

	"resex/internal/fabric"
	"resex/internal/hca"
	"resex/internal/ibmon"
	"resex/internal/sim"
	"resex/internal/xen"
)

// Kind is a fault event type.
type Kind int

// Fault kinds.
const (
	// LinkDegrade scales the host's uplink and downlink bandwidth by
	// Factor for Duration (cable degradation, SerDes retraining).
	LinkDegrade Kind = iota
	// LinkFlap takes the host's links down for Duration; queued traffic
	// waits and resumes when the link returns.
	LinkFlap
	// HCAStall withholds every completion on the host's adapter for
	// Duration, then replays them as one burst — forcing CQ overruns and
	// IBMon sampling loss.
	HCAStall
	// MapInvalidate invalidates the IBMon introspection mappings of Dom
	// (0 = every watched domain) on the host for Duration; the monitor
	// remaps with exponential backoff once the window ends.
	MapInvalidate
	// TelemetryBlackout stops the host's IBMon sampling entirely for
	// Duration; confidence decays, usage estimates go stale.
	TelemetryBlackout
	// MigrationFail marks [At, At+Duration) as a window during which any
	// migration pre-copy out of the host aborts (consulted by the
	// placement layer through AbortPreCopy).
	MigrationFail
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case LinkDegrade:
		return "link-degrade"
	case LinkFlap:
		return "link-flap"
	case HCAStall:
		return "hca-stall"
	case MapInvalidate:
		return "map-invalidate"
	case TelemetryBlackout:
		return "blackout"
	case MigrationFail:
		return "migration-fail"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the absolute simulation time the fault begins.
	At sim.Time
	// Kind selects the fault type.
	Kind Kind
	// Host is the target's fabric node id (must be attached).
	Host int
	// Dom narrows MapInvalidate to one domain; 0 hits every watched
	// domain of the host's monitor at fire time.
	Dom xen.DomID
	// Duration is how long the fault lasts; the restoring half-event fires
	// at At+Duration.
	Duration sim.Time
	// Factor is the LinkDegrade bandwidth multiplier, in (0,1).
	Factor float64
}

// Schedule is an ordered set of fault events.
type Schedule struct {
	Events []Event
}

// Add appends an event.
func (s *Schedule) Add(e Event) { s.Events = append(s.Events, e) }

// sorted returns the events ordered by start time, original order preserved
// among equal times (stable), leaving the caller's slice untouched.
func (s Schedule) sorted() []Event {
	out := make([]Event, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// HostPorts is everything the injector can reach on one host.
type HostPorts struct {
	// Node is the host's fabric node id (the Event.Host key).
	Node int
	// Uplink and Downlink are the host's fabric links; either may be nil.
	Uplink, Downlink *fabric.Link
	// HCA is the host adapter for completion stalls; may be nil.
	HCA *hca.HCA
	// Mon is the host's IBMon monitor for introspection faults; may be nil.
	Mon *ibmon.Monitor
}

// hostState is a registered host plus its active-fault nesting counters, so
// overlapping events of the same kind restore only when the last one ends.
type hostState struct {
	HostPorts
	degrades   int
	lastFactor float64
	flaps      int
	stalls     int
	blackouts  int
	revokes    map[xen.DomID]int
	failUntil  sim.Time // end of the latest migration-fail window
}

// Injector arms fault schedules against attached hosts. All methods must be
// called from engine context (events fire as engine callbacks); attaching
// and arming before Run is the normal pattern.
type Injector struct {
	eng    *sim.Engine
	hosts  []*hostState // attach order: deterministic iteration
	fired  []Event      // events in fire order, for logs and tests
	armed  int          // events scheduled and not yet begun
	active int          // events begun and not yet restored
}

// NewInjector creates an injector bound to the engine.
func NewInjector(eng *sim.Engine) *Injector {
	return &Injector{eng: eng}
}

// AttachHost registers a host's ports. Must precede arming events that
// target the node.
func (in *Injector) AttachHost(hp HostPorts) {
	for _, h := range in.hosts {
		if h.Node == hp.Node {
			panic(fmt.Sprintf("faults: node %d attached twice", hp.Node))
		}
	}
	in.hosts = append(in.hosts, &hostState{HostPorts: hp, revokes: make(map[xen.DomID]int)})
}

// host resolves a node id.
func (in *Injector) host(node int) *hostState {
	for _, h := range in.hosts {
		if h.Node == node {
			return h
		}
	}
	return nil
}

// Arm schedules every event in the schedule (earliest first; equal start
// times keep schedule order, and the engine's sequence numbers make the
// whole replay deterministic). Events must target attached hosts and start
// no earlier than the current simulation time.
func (in *Injector) Arm(s Schedule) {
	for _, e := range s.sorted() {
		h := in.host(e.Host)
		if h == nil {
			panic(fmt.Sprintf("faults: event %v targets unattached node %d", e.Kind, e.Host))
		}
		in.armed++
		in.eng.Schedule(e.At, func() {
			in.armed--
			in.begin(h, e)
		})
	}
}

// Fired returns the events that have begun, in fire order.
func (in *Injector) Fired() []Event { return in.fired }

// Active returns the number of faults currently in effect.
func (in *Injector) Active() int { return in.active }

// Pending returns the number of armed events that have not begun yet.
func (in *Injector) Pending() int { return in.armed }

// AbortPreCopy reports whether a migration pre-copy out of the node should
// abort right now — true inside any armed MigrationFail window for the host.
// Unattached nodes never abort.
func (in *Injector) AbortPreCopy(node int) bool {
	h := in.host(node)
	return h != nil && in.eng.Now() < h.failUntil
}

// begin applies one event and schedules its restoring half.
func (in *Injector) begin(h *hostState, e Event) {
	in.fired = append(in.fired, e)
	switch e.Kind {
	case LinkDegrade:
		h.degrades++
		h.lastFactor = e.Factor
		in.setDegrade(h, e.Factor)
		in.restoreAfter(e, func() {
			h.degrades--
			if h.degrades == 0 {
				in.setDegrade(h, 1)
			} else {
				in.setDegrade(h, h.lastFactor)
			}
		})
	case LinkFlap:
		h.flaps++
		in.setDown(h, true)
		in.restoreAfter(e, func() {
			h.flaps--
			if h.flaps == 0 {
				in.setDown(h, false)
			}
		})
	case HCAStall:
		if h.HCA != nil {
			h.stalls++
			h.HCA.StallCompletions()
			in.restoreAfter(e, func() {
				h.stalls--
				h.HCA.ResumeCompletions()
			})
		}
	case MapInvalidate:
		if h.Mon != nil {
			doms := in.invalidate(h, e.Dom)
			in.restoreAfter(e, func() {
				for _, dom := range doms {
					h.revokes[dom]--
					if h.revokes[dom] == 0 {
						h.Mon.RestoreDomain(dom)
					}
				}
			})
		}
	case TelemetryBlackout:
		if h.Mon != nil {
			h.blackouts++
			h.Mon.SetBlackout(true)
			in.restoreAfter(e, func() {
				h.blackouts--
				if h.blackouts == 0 {
					h.Mon.SetBlackout(false)
				}
			})
		}
	case MigrationFail:
		if until := e.At + e.Duration; until > h.failUntil {
			h.failUntil = until
		}
	default:
		panic(fmt.Sprintf("faults: unknown kind %d", int(e.Kind)))
	}
}

// restoreAfter runs fn at the event's end and tracks the active count. An
// event with no duration restores at its own instant (after begin).
func (in *Injector) restoreAfter(e Event, fn func()) {
	in.active++
	in.eng.After(e.Duration, func() {
		in.active--
		fn()
	})
}

// setDegrade applies a bandwidth factor to both of the host's links.
func (in *Injector) setDegrade(h *hostState, factor float64) {
	if h.Uplink != nil {
		h.Uplink.SetDegrade(factor)
	}
	if h.Downlink != nil {
		h.Downlink.SetDegrade(factor)
	}
}

// setDown flaps both of the host's links.
func (in *Injector) setDown(h *hostState, down bool) {
	if h.Uplink != nil {
		h.Uplink.SetDown(down)
	}
	if h.Downlink != nil {
		h.Downlink.SetDown(down)
	}
}

// invalidate revokes the mappings of one domain (or every watched domain)
// and returns the affected list for the restoring half.
func (in *Injector) invalidate(h *hostState, dom xen.DomID) []xen.DomID {
	var doms []xen.DomID
	if dom != 0 {
		doms = []xen.DomID{dom}
	} else {
		seen := make(map[xen.DomID]bool)
		for _, t := range h.Mon.Targets() {
			if !seen[t.Domain()] {
				seen[t.Domain()] = true
				doms = append(doms, t.Domain())
			}
		}
	}
	for _, d := range doms {
		h.revokes[d]++
		h.Mon.InvalidateDomain(d)
	}
	return doms
}
