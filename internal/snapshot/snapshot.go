// Package snapshot implements deterministic, versioned checkpoint/restore
// for the simulation.
//
// Restore is replay-based. The engine's pending events are Go closures —
// they cannot be serialized, and no structural resurrection of a closure
// graph is possible in Go — but every run in this codebase is a pure
// function of its seeded inputs (and, for a daemon session, of its command
// log). A snapshot therefore records three things:
//
//  1. the generative inputs (experiment id or daemon scenario config, seed,
//     durations, the command log),
//  2. the capture point T (virtual time), and
//  3. a full per-subsystem state export at T: engine event and timer keys and
//     counters, RNG stream positions, Xen/HCA/ResEx ledgers, IBMon
//     confidence state, fault-plan cursors, workload arrival and SLO-window
//     state, invariant-auditor accumulators.
//
// Restore rebuilds from the inputs, replays deterministically to T, and
// then *verifies* the replayed state against export (3) byte-for-byte —
// divergence is an error, never a silent drift. Because replay is
// deterministic, a restored run's remaining output is byte-identical to the
// uninterrupted run's; the export is what turns that from an assumption
// into a checked property. The same structure makes the snapshot file a
// time-travel fixture: it pins both how to get to T and what T must look
// like.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// Version is the current snapshot format version. Decode rejects any other
// version: the format carries full state exports whose field sets change
// with the subsystems, so cross-version restores would verify garbage.
// Version 2: placement.State gained the cluster-state store counters and
// State gained the schedshard section.
// Version 3: State gained the simpar section (sharded-run coordinator
// state: per-host send counters and in-flight message keys).
// Version 4: State gained the exchange section (per-host fungible-market
// trade books: board utilization EWMAs, ledger totals, holder positions).
// Version 5: exchange vectors widened by the memory-bandwidth dimension
// (DimMemBW) and schedshard pending/bound entries carry gang fields.
const Version = 5

// magic opens every snapshot file.
var magic = []byte("RESEXSNAP\n")

// maxPayload bounds the decoded payload (64 MiB) so a corrupted length
// field cannot make Decode attempt an absurd allocation.
const maxPayload = 64 << 20

// Meta records the generative inputs of the run a snapshot belongs to —
// everything needed to rebuild and replay it from virtual time zero.
type Meta struct {
	// Kind is "experiment" (resexsim driver) or "daemon" (resexd session).
	Kind string `json:"kind"`
	// Experiment is the registered driver id (kind "experiment").
	Experiment string `json:"experiment,omitempty"`
	// Seed, DurationNs, WarmupNs mirror the driver options.
	Seed       int64 `json:"seed"`
	DurationNs int64 `json:"duration_ns,omitempty"`
	WarmupNs   int64 `json:"warmup_ns,omitempty"`
	// Audit records whether the invariant auditor ran (it must match on
	// replay: auditing attaches a step hook and dom0 sampling state).
	Audit bool `json:"audit,omitempty"`
	// SnapshotAtNs is the capture point T in virtual nanoseconds.
	SnapshotAtNs int64 `json:"snapshot_at_ns"`
	// Config carries the daemon's scenario configuration (kind "daemon").
	Config json.RawMessage `json:"config,omitempty"`
}

// LogEntry is one replayable control command of a daemon session, stamped
// with the quantum boundary it was applied at.
type LogEntry struct {
	// Idx is the quantum-boundary index the command executed at.
	Idx int64 `json:"idx"`
	// AtNs is the virtual time of that boundary.
	AtNs int64 `json:"at_ns"`
	// Cmd is the command's wire form, replayed verbatim.
	Cmd json.RawMessage `json:"cmd"`
}

// Key identifies one captured engine within a run: the sweep point's
// derived seed and the engine's build ordinal within that point. Both are
// deterministic at any -parallel width, which is what lets capture and
// verify runs agree on numbering without coordination.
type Key struct {
	PointSeed int64 `json:"point_seed"`
	Ordinal   int   `json:"ordinal"`
}

// Snapshot is one engine's captured state at the capture point.
type Snapshot struct {
	Key   Key   `json:"key"`
	AtNs  int64 `json:"at_ns"`
	State State `json:"state"`
}

// Bundle is a snapshot file: inputs, command log, and every engine capture.
type Bundle struct {
	Meta  Meta       `json:"meta"`
	Log   []LogEntry `json:"log,omitempty"`
	Snaps []Snapshot `json:"snaps"`
}

// Encode writes the bundle: magic, version, payload length, JSON payload,
// FNV-64a checksum of the payload. The JSON layer keeps the format
// diffable and versionable; the frame makes truncation and corruption
// loud.
func Encode(w io.Writer, b *Bundle) error {
	payload, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	var hdr [14]byte
	copy(hdr[:10], magic)
	binary.BigEndian.PutUint32(hdr[10:14], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var ln [8]byte
	binary.BigEndian.PutUint64(ln[:], uint64(len(payload)))
	if _, err := w.Write(ln[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	h := fnv.New64a()
	h.Write(payload)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	_, err = w.Write(sum[:])
	return err
}

// Decode reads a bundle, rejecting truncated, corrupted, or version-skewed
// input with an error (never a panic — FuzzSnapshotDecode holds it to
// that).
func Decode(r io.Reader) (*Bundle, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: short header: %w", err)
	}
	if !bytes.Equal(hdr[:10], magic) {
		return nil, fmt.Errorf("snapshot: bad magic %q", hdr[:10])
	}
	if v := binary.BigEndian.Uint32(hdr[10:14]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d (this build reads %d)", v, Version)
	}
	var ln [8]byte
	if _, err := io.ReadFull(r, ln[:]); err != nil {
		return nil, fmt.Errorf("snapshot: short length: %w", err)
	}
	n := binary.BigEndian.Uint64(ln[:])
	if n > maxPayload {
		return nil, fmt.Errorf("snapshot: payload length %d exceeds limit %d", n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("snapshot: short payload: %w", err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("snapshot: short checksum: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.BigEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch: %016x != %016x", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	b := new(Bundle)
	if err := dec.Decode(b); err != nil {
		return nil, fmt.Errorf("snapshot: payload: %w", err)
	}
	return b, nil
}

// WriteFile encodes the bundle to path (0644).
func WriteFile(path string, b *Bundle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes the bundle at path.
func ReadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
