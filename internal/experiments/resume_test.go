package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"

	"resex/internal/invariant"
	"resex/internal/sim"
	"resex/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.json from this run")

// goldenDigests pins every driver's result text across commits: one FNV-64a
// digest per (driver, seed) of the uninterrupted run below, plus one per
// encoded capture bundle ("<id>/seed<N>/bundle"), so a change that drops or
// reorders an exported state section fails too. After an intentional output
// or wire-format change, regenerate it with
//
//	go test ./internal/experiments -run TestResumeSweepAllDrivers -update
const goldenDigests = "testdata/golden_digests.json"

// TestResumeSweepAllDrivers is the crash-restart determinism matrix: every
// registered driver, at two seeds, must produce byte-identical result text
// across (1) an uninterrupted run, (2) a run with a snapshot captured at
// T = warmup + duration/2, and (3) a run restored from that snapshot —
// rebuilt, replayed to T under byte-for-byte state verification, and run to
// the end. This is the same property the CI crash-restart gate diffs on
// resexsim stdout; here it covers the full driver matrix. The capture and
// restore runs are audited, each with its own collector, so the bundle
// carries the auditor's accumulators and the matrix also checks that audit
// plus capture leaves the output unchanged. The uninterrupted run's text and
// the encoded bundle are held to their checked-in golden digests, so a
// refactor that moves any driver's output or snapshot fails here even when
// it moves it the same way at every width.
func TestResumeSweepAllDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("full driver matrix; skipped in -short")
	}
	seeds := []int64{3, 11}
	dur, warm := 60*sim.Millisecond, 20*sim.Millisecond
	var mu sync.Mutex
	got := map[string]string{}
	t.Cleanup(func() { checkGoldenDigests(t, seeds, got) })
	for _, id := range IDs() {
		for _, seed := range seeds {
			id, seed, key := id, seed, digestKey(id, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				entry, err := Lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				run := func(plan *snapshot.Plan, col *invariant.Collector) string {
					res, err := entry.Run(Options{
						Duration:   dur,
						Warmup:     warm,
						Seed:       seed,
						Parallel:   2,
						Checkpoint: plan,
						Audit:      col,
					})
					if err != nil {
						t.Fatalf("%s seed %d: %v", id, seed, err)
					}
					var b strings.Builder
					if err := res.WriteText(&b); err != nil {
						t.Fatal(err)
					}
					return b.String()
				}

				base := run(nil, nil)
				record := func(key string, data []byte) {
					h := fnv.New64a()
					h.Write(data)
					mu.Lock()
					got[key] = fmt.Sprintf("%016x", h.Sum64())
					mu.Unlock()
				}
				record(key, []byte(base))
				if id == "abl-restart" {
					// Runs this exact capture/verify loop internally,
					// self-gating, and would triple-nest it here.
					return
				}

				capture := snapshot.NewCapture(warm + dur/2)
				if got := run(capture, invariant.NewCollector(invariant.Audit)); got != base {
					t.Fatalf("auditing and arming the capture breakpoint changed the output:\n--- plain\n%s\n--- captured\n%s", base, got)
				}
				bundle, err := capture.Bundle(snapshot.Meta{
					Kind:       "experiment",
					Experiment: id,
					Seed:       seed,
					DurationNs: int64(dur),
					WarmupNs:   int64(warm),
					Audit:      true,
				})
				if err != nil {
					t.Fatalf("bundle: %v", err)
				}

				// Through the wire format, as resexsim writes it to disk.
				var buf bytes.Buffer
				if err := snapshot.Encode(&buf, bundle); err != nil {
					t.Fatal(err)
				}
				record(bundleKey(key), buf.Bytes())
				decoded, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}

				verify := snapshot.NewVerify(decoded)
				if got := run(verify, invariant.NewCollector(invariant.Audit)); got != base {
					t.Fatalf("restored run's output diverged:\n--- plain\n%s\n--- restored\n%s", base, got)
				}
				if err := verify.Err(); err != nil {
					t.Fatalf("state verification at T failed: %v", err)
				}
			})
		}
	}
}

func digestKey(id string, seed int64) string { return fmt.Sprintf("%s/seed%d", id, seed) }

func bundleKey(runKey string) string { return runKey + "/bundle" }

// checkGoldenDigests compares the digests the sweep computed against the
// checked-in file, or rewrites the file under -update. Every registered
// (driver, seed) must have an entry and every entry must name one; a run
// filtered with -run checks only the drivers it computed.
func checkGoldenDigests(t *testing.T, seeds []int64, got map[string]string) {
	want := map[string]string{}
	data, err := os.ReadFile(goldenDigests)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Errorf("%s: %v (regenerate with -update)", goldenDigests, err)
		return
	}
	registered := map[string]bool{}
	for _, id := range IDs() {
		for _, seed := range seeds {
			registered[digestKey(id, seed)] = true
			if id != "abl-restart" {
				registered[bundleKey(digestKey(id, seed))] = true
			}
		}
	}
	if *update {
		for k := range want {
			if !registered[k] {
				delete(want, k)
			}
		}
		for k, d := range got {
			want[k] = d
		}
		out, _ := json.MarshalIndent(want, "", "  ") // a map of strings always marshals
		if err := os.WriteFile(goldenDigests, append(out, '\n'), 0o644); err != nil {
			t.Error(err)
		}
		return
	}
	for k := range want {
		if !registered[k] {
			t.Errorf("stale golden digest %s: no such driver/seed (regenerate with -update)", k)
		}
	}
	for k, d := range got {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("missing golden digest for %s (regenerate with -update)", k)
		case w != d:
			t.Errorf("%s: output digest %s, golden %s — driver output changed (regenerate with -update if intended)", k, d, w)
		}
	}
}
