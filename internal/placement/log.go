package placement

import (
	"fmt"

	"resex/internal/sim"
)

// Event is one timestamped scheduler decision or migration phase.
type Event struct {
	At   sim.Time
	Kind string // "place", "migrate", "rebalance"
	Text string
}

// MigrationRecord summarizes one completed live migration.
type MigrationRecord struct {
	VM       string
	From, To int // node ids
	Start    sim.Time
	End      sim.Time
	// Downtime is the stop-and-copy window during which the VM served
	// nothing (dirty-state transfer plus the configured blackout).
	Downtime sim.Time
	// BytesMoved is the modeled state volume (pre-copy plus dirty round).
	BytesMoved int64
	// FlowBytes is what the source uplink actually accounted to the
	// migration flow — the proof that migration traffic shares the fabric
	// with workload I/O rather than moving out of band.
	FlowBytes int64
}

// MigrationFailure records a migration that rolled back instead of
// completing — the VM stayed live on the source host.
type MigrationFailure struct {
	VM       string
	From, To int // node ids
	At       sim.Time
	Reason   string
}

// EventLog collects scheduler decisions and migrations in event order.
type EventLog struct {
	Events     []Event
	Migrations []MigrationRecord
	Failures   []MigrationFailure
}

// Add appends an event.
func (l *EventLog) Add(at sim.Time, kind, format string, args ...any) {
	l.Events = append(l.Events, Event{At: at, Kind: kind, Text: fmt.Sprintf(format, args...)})
}
