package experiments

import (
	"bytes"
	"fmt"
	"io"

	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-restart: crash-restart determinism and mid-run policy flips.
//
// Part one kills the mixed-class scenario at T = warmup + duration/2,
// snapshots it, restores from the snapshot (rebuild + deterministic replay +
// byte-for-byte state verification at T), and runs to the end: the restored
// run's figures must be identical to the uninterrupted run's. The driver
// fails — non-zero exit — if they are not, which is what lets CI gate on it.
//
// Part two exercises the epoch-aligned live policy swap: the same scenario
// under each pure policy, then with FreeMarket flipped to IOShares at T, and
// IOShares dropped to the passive "none" policy at T. The SLO-attainment
// table shows the flipped runs inheriting the tail behaviour of whichever
// policy governs the second half.
// ---------------------------------------------------------------------------

// AblRestartRow is one run of the mixed-class scenario.
type AblRestartRow struct {
	// Config labels the run: a phase name for the crash-restart rows, a
	// policy (or "a→b" flip) for the A/B rows.
	Config string
	// LatP99, LatAttainPct, LatCompletedPerSec, BulkMBps mirror the
	// abl-workload-mix columns.
	LatP99             float64
	LatAttainPct       float64
	LatCompletedPerSec float64
	BulkMBps           float64
}

// metrics formats the row's figures without its label, for the byte-compare
// the crash-restart phase gates on.
func (r AblRestartRow) metrics() string {
	return fmt.Sprintf("%.3f %.3f %.3f %.3f",
		r.LatP99, r.LatAttainPct, r.LatCompletedPerSec, r.BulkMBps)
}

// AblRestartResult is the combined crash-restart + policy-flip report.
type AblRestartResult struct {
	// SnapshotAtNs is T, the kill/flip point (virtual ns).
	SnapshotAtNs int64
	// Restart holds the uninterrupted / capture / restore rows.
	Restart []AblRestartRow
	// Identical reports whether all three restart rows agree byte-for-byte
	// and the restore's state verification at T passed.
	Identical bool
	// Flip holds the pure-policy and flipped rows.
	Flip []AblRestartRow
}

// Title implements Result.
func (r *AblRestartResult) Title() string {
	return "Restart: crash-restart determinism and mid-run policy flip"
}

// WriteText implements Result.
func (r *AblRestartResult) WriteText(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%s (T=%s)\n", r.Title(), sim.Time(r.SnapshotAtNs))
	ew.printf("\ncrash-restart (kill at T, snapshot, restore, run to end):\n")
	ew.printf("%-21s %12s %11s %9s %12s\n",
		"run", "lat p99(µs)", "lat SLO(%)", "lat/s", "bulk(MB/s)")
	for _, row := range r.Restart {
		ew.printf("%-21s %12.0f %11.1f %9.0f %12.1f\n",
			row.Config, row.LatP99, row.LatAttainPct, row.LatCompletedPerSec, row.BulkMBps)
	}
	ew.printf("resume byte-identical to uninterrupted run: %v\n", r.Identical)
	ew.printf("\npolicy flip at T (epoch-aligned swap):\n")
	ew.printf("%-21s %12s %11s %9s %12s\n",
		"config", "lat p99(µs)", "lat SLO(%)", "lat/s", "bulk(MB/s)")
	for _, row := range r.Flip {
		ew.printf("%-21s %12.0f %11.1f %9.0f %12.1f\n",
			row.Config, row.LatP99, row.LatAttainPct, row.LatCompletedPerSec, row.BulkMBps)
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *AblRestartResult) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("section,config,lat_p99_us,lat_slo_attain_pct,lat_completed_per_sec,bulk_mbps,identical\n")
	for _, row := range r.Restart {
		ew.printf("restart,%s,%g,%g,%g,%g,%v\n",
			row.Config, row.LatP99, row.LatAttainPct, row.LatCompletedPerSec, row.BulkMBps, r.Identical)
	}
	for _, row := range r.Flip {
		ew.printf("flip,%s,%g,%g,%g,%g,\n",
			row.Config, row.LatP99, row.LatAttainPct, row.LatCompletedPerSec, row.BulkMBps)
	}
	return ew.err
}

// runRestartCell runs the mixed-class scenario (as abl-workload-mix) under
// the named starting policy. When flipTo is non-empty the managers swap to
// that policy at the first epoch boundary after flipAt, via a seq-neutral
// engine breakpoint — the run is event-identical to an unflipped one up to
// the swap.
func runRestartCell(o Options, label, policy, flipTo string, flipAt sim.Time) (AblRestartRow, error) {
	mk, err := workload.Policy(policy)
	if err != nil {
		return AblRestartRow{}, err
	}
	mix, err := newMixedClass(o, mk)
	if err != nil {
		return AblRestartRow{}, err
	}
	if flipTo != "" {
		flip, err := workload.Policy(flipTo)
		if err != nil {
			return AblRestartRow{}, err
		}
		mix.e.TB.Eng.Breakpoint(flipAt, func() {
			for _, m := range mix.e.Mgrs {
				if m != nil {
					m.SwapPolicyAtEpoch(flip())
				}
			}
		})
	}
	row := AblRestartRow{Config: label}
	row.LatP99, row.LatAttainPct, row.LatCompletedPerSec, row.BulkMBps = mix.run(o)
	return row, nil
}

// AblRestart runs both phases. The crash-restart phase is self-checking: a
// state divergence at T, a snapshot that fails to round-trip through the
// codec, or any figure differing between the uninterrupted and restored runs
// is an error, not a footnote.
func AblRestart(o Options) (*AblRestartResult, error) {
	o = o.WithDefaults()
	// All phases replay the same cell, so they must share one point seed.
	o.PointSeed = DeriveSeed(o.Seed, 0)
	at := o.Warmup + o.Duration/2
	res := &AblRestartResult{SnapshotAtNs: int64(at)}

	// Phase 1: uninterrupted reference.
	ref, err := runRestartCell(o, "uninterrupted", "freemarket", "", 0)
	if err != nil {
		return nil, err
	}

	// Phase 2: same run, killed at T — capture a snapshot there. The
	// capture breakpoint is seq-neutral, so this run's figures must equal
	// the reference's.
	oc := o
	oc.Checkpoint = snapshot.NewCapture(at)
	capRow, err := runRestartCell(oc, "capture", "freemarket", "", 0)
	if err != nil {
		return nil, err
	}
	bundle, err := oc.Checkpoint.Bundle(snapshot.Meta{
		Kind:       "experiment",
		Experiment: "abl-restart",
		Seed:       o.Seed,
		DurationNs: int64(o.Duration),
		WarmupNs:   int64(o.Warmup),
		Audit:      o.Audit != nil,
	})
	if err != nil {
		return nil, err
	}

	// The snapshot travels through the wire format, as a real crash-restart
	// would read it from disk.
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, bundle); err != nil {
		return nil, err
	}
	restored, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}

	// Phase 3: restore — rebuild, replay to T under byte-for-byte state
	// verification, continue to the end.
	or := o
	or.Checkpoint = snapshot.NewVerify(restored)
	resRow, err := runRestartCell(or, "restore", "freemarket", "", 0)
	if err != nil {
		return nil, err
	}
	if err := or.Checkpoint.Err(); err != nil {
		return nil, fmt.Errorf("abl-restart: restore diverged: %w", err)
	}
	res.Restart = []AblRestartRow{ref, capRow, resRow}
	res.Identical = ref.metrics() == capRow.metrics() && ref.metrics() == resRow.metrics()
	if !res.Identical {
		return nil, fmt.Errorf("abl-restart: restored run's figures differ from uninterrupted run:\n  %s\n  %s\n  %s",
			ref.metrics(), capRow.metrics(), resRow.metrics())
	}

	// Phase 4: the A/B flip table. Pure policies first, then mid-run swaps.
	flips := []struct{ label, policy, flipTo string }{
		{"none", "none", ""},
		{"freemarket", "freemarket", ""},
		{"ioshares", "ioshares", ""},
		{"freemarket>ioshares", "freemarket", "ioshares"},
		{"ioshares>none", "ioshares", "none"},
	}
	for _, f := range flips {
		if f.label == "freemarket" {
			// Identical cell to the reference run; reuse it.
			res.Flip = append(res.Flip, AblRestartRow{Config: f.label,
				LatP99: ref.LatP99, LatAttainPct: ref.LatAttainPct,
				LatCompletedPerSec: ref.LatCompletedPerSec, BulkMBps: ref.BulkMBps})
			continue
		}
		row, err := runRestartCell(o, f.label, f.policy, f.flipTo, at)
		if err != nil {
			return nil, err
		}
		res.Flip = append(res.Flip, row)
	}
	return res, nil
}
