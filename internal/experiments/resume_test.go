// External test package: the sweep renders every result through
// internal/report, which imports this package.
package experiments_test

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

	"resex/internal/experiments"
	"resex/internal/invariant"
	"resex/internal/report"
	"resex/internal/sim"
	"resex/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.json from this run")

// goldenDigests pins every driver's output across commits: one FNV-64a
// digest per (driver, seed) of the plain run's result text, one of its CSV
// ("<id>/seed<N>/csv"), one of the SVG rendered from that result
// ("<id>/seed<N>/svg"), and one per encoded capture bundle
// ("<id>/seed<N>/bundle"), so a change that moves a figure, its CSV, its
// plot, or an exported state section fails too. After an intentional
// output, plot or wire-format change, regenerate it with
//
//	go test ./internal/experiments -run TestResumeSweepAllDrivers -update
const goldenDigests = "testdata/golden_digests.json"

// width is one setting of the three wall-clock-only knobs.
type width struct{ parallel, shardWorkers, simShards int }

// The three runs of a sweep cell each use a different width, so the sweep's
// text and CSV equality checks also prove width invariance for every driver.
var (
	plainWidth   = width{1, 1, 1}
	captureWidth = width{4, 8, 4}
	verifyWidth  = width{2, 3, 2}
)

// rendered is one run's result with its text and CSV renderings.
type rendered struct {
	res       experiments.Result
	text, csv string
}

// TestResumeSweepAllDrivers is the one full-driver matrix: every registered
// driver, at two seeds, must produce byte-identical text and CSV across
// (1) a plain run, (2) an audited run with a snapshot captured at
// T = warmup + duration/2, and (3) an audited run restored from that
// snapshot — rebuilt, replayed to T under byte-for-byte state verification,
// and run to the end. Each run uses a different Parallel/ShardWorkers/
// SimShards width. Both audited runs must attach an auditor to at least
// one engine, observe events, report zero invariant violations and render
// equal summaries. The plain run's text, its CSV, its SVG rendering and the
// encoded bundle are held to their checked-in golden digests, so a refactor
// that moves any driver's output, plot or snapshot fails here even when it
// moves it the same way at every width.
func TestResumeSweepAllDrivers(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full driver matrix; skipped in -short")
	}
	seeds := []int64{3, 11}
	dur, warm := 60*sim.Millisecond, 20*sim.Millisecond
	var mu sync.Mutex
	got := map[string]string{}
	t.Cleanup(func() { checkGoldenDigests(t, seeds, got) })
	for _, id := range experiments.IDs() {
		for _, seed := range seeds {
			id, seed, key := id, seed, digestKey(id, seed)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				entry, err := experiments.Lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				run := func(w width, plan *snapshot.Plan, col *invariant.Collector) rendered {
					res, err := entry.Run(experiments.Options{
						Duration:     dur,
						Warmup:       warm,
						Seed:         seed,
						Parallel:     w.parallel,
						ShardWorkers: w.shardWorkers,
						SimShards:    w.simShards,
						Checkpoint:   plan,
						Audit:        col,
					})
					if err != nil {
						t.Fatalf("%s seed %d width %+v: %v", id, seed, w, err)
					}
					var text, csv strings.Builder
					if err := res.WriteText(&text); err != nil {
						t.Fatal(err)
					}
					if err := res.WriteCSV(&csv); err != nil {
						t.Fatal(err)
					}
					return rendered{res, text.String(), csv.String()}
				}
				record := func(key string, data []byte) {
					h := fnv.New64a()
					h.Write(data)
					mu.Lock()
					got[key] = fmt.Sprintf("%016x", h.Sum64())
					mu.Unlock()
				}

				// abl-restart runs this exact capture/verify loop internally,
				// self-gating, and would triple-nest it here, so its one run
				// is the audited one.
				restart := id == "abl-restart"
				var plainAudit *invariant.Collector
				if restart {
					plainAudit = invariant.NewCollector(invariant.Audit)
				}
				plain := run(plainWidth, nil, plainAudit)
				record(key, []byte(plain.text))
				record(csvKey(key), []byte(plain.csv))
				svg, err := report.RenderSVG(plain.res)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(svg, "<svg ") || !strings.HasSuffix(svg, "</svg>\n") {
					t.Fatalf("not a well-formed SVG document: %.60q...", svg)
				}
				if len(svg) < 2000 {
					t.Errorf("suspiciously small SVG (%d bytes)", len(svg))
				}
				record(svgKey(key), []byte(svg))
				if restart {
					auditSummary(t, "plain", plainAudit)
					return
				}

				same := func(run string, r rendered) {
					t.Helper()
					if r.text != plain.text {
						t.Fatalf("%s run's text differs from the plain run's:\n--- plain\n%s\n--- %s\n%s", run, plain.text, run, r.text)
					}
					if r.csv != plain.csv {
						t.Fatalf("%s run's CSV differs from the plain run's", run)
					}
				}

				capture := snapshot.NewCapture(warm + dur/2)
				captureAudit := invariant.NewCollector(invariant.Audit)
				same("captured", run(captureWidth, capture, captureAudit))
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
				verifyAudit := invariant.NewCollector(invariant.Audit)
				same("restored", run(verifyWidth, verify, verifyAudit))
				if err := verify.Err(); err != nil {
					t.Fatalf("state verification at T failed: %v", err)
				}
				if c, v := auditSummary(t, "captured", captureAudit), auditSummary(t, "restored", verifyAudit); c != v {
					t.Fatalf("audit summaries differ:\n--- captured\n%s--- restored\n%s", c, v)
				}
			})
		}
	}
}

// auditSummary fails the test unless the audited run attached an auditor,
// observed events and found no violations, and returns its summary text.
func auditSummary(t *testing.T, run string, col *invariant.Collector) string {
	t.Helper()
	var b strings.Builder
	if err := col.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	switch r := col.Report(); {
	case r.Engines == 0:
		t.Fatalf("%s run: no auditor attached — driver lost its audit wiring", run)
	case r.Events == 0:
		t.Fatalf("%s run: auditor observed no events", run)
	case r.Total != 0:
		t.Fatalf("%s run: invariant violations:\n%s", run, b.String())
	}
	return b.String()
}

func digestKey(id string, seed int64) string { return fmt.Sprintf("%s/seed%d", id, seed) }

func bundleKey(runKey string) string { return runKey + "/bundle" }

func svgKey(runKey string) string { return runKey + "/svg" }

func csvKey(runKey string) string { return runKey + "/csv" }

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
	for _, id := range experiments.IDs() {
		for _, seed := range seeds {
			key := digestKey(id, seed)
			registered[key] = true
			registered[csvKey(key)] = true
			registered[svgKey(key)] = true
			if id != "abl-restart" {
				registered[bundleKey(key)] = true
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
