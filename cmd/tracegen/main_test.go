package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"resex/internal/trace"
)

// writeFile stores b in a fresh temporary file and returns its path.
func writeFile(t *testing.T, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "workload.trc")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRoundTrip(t *testing.T) {
	reqs := trace.Record(trace.NewGenerator(7), 20)
	var buf bytes.Buffer
	if err := trace.WriteLog(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	got, err := load(writeFile(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("loaded %d requests, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("request %d differs after the round trip", i)
		}
	}
}

func TestLoadRejectsEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteLog(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if reqs, err := load(writeFile(t, buf.Bytes())); err == nil {
		t.Fatalf("empty log loaded as %d requests, want an error", len(reqs))
	}
}

func TestLoadRejectsForgedHeader(t *testing.T) {
	// A valid header claiming 2^28 records, with no records behind it.
	var buf bytes.Buffer
	if err := trace.WriteLog(&buf, nil); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	binary.LittleEndian.PutUint64(hdr[8:], 1<<28)
	if _, err := load(writeFile(t, hdr)); !errors.Is(err, trace.ErrBadLog) {
		t.Fatalf("forged header: err = %v, want ErrBadLog", err)
	}
}
