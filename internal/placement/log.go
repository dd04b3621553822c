package placement

import "resex/internal/sim"

// MigrationRecord summarizes one completed live migration.
type MigrationRecord struct {
	VM       string
	From, To int // node ids
	Start    sim.Time
	End      sim.Time
	// Downtime is the stop-and-copy window during which the VM served
	// nothing (dirty-state transfer plus the configured blackout).
	Downtime sim.Time
	// FlowBytes is what the source uplink actually accounted to the
	// migration flow — the proof that migration traffic shares the fabric
	// with workload I/O rather than moving out of band.
	FlowBytes int64
}

// MigrationFailure records a migration whose pre-copy aborted and rolled
// back instead of completing — the VM stayed live on the source host.
type MigrationFailure struct {
	VM       string
	From, To int // node ids
}

// EventLog collects completed and rolled-back migrations in event order.
type EventLog struct {
	Migrations []MigrationRecord
	Failures   []MigrationFailure
}
