package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int // 0 = error
	}{
		{"64KB", 64 << 10},
		{"2MB", 2 << 20},
		{" 2mb ", 2 << 20},
		{"512B", 512},
		{"4096", 4096},
		{"0KB", 0},
		{"0", 0},
		{"-1MB", 0},
		{"-64", 0},
		{"", 0},
		{"KB", 0},
		{"1.5MB", 0},
		{"64GB", 0},
		{"16MB", 16 << 20},
		{"17MB", 0},
		{"600MB", 0},
		{"9007199254740992MB", 0},
	} {
		got, err := parseSize(tc.in)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

// TestReadmeQuickstart runs the command line README.md's Quickstart shows
// and checks that stdout equals the output block printed under it.
func TestReadmeQuickstart(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, quick, ok := strings.Cut(string(readme), "\n## Quickstart\n")
	if !ok {
		t.Fatal("README.md has no Quickstart section")
	}
	blocks := strings.Split(quick, "```\n")
	if len(blocks) < 4 {
		t.Fatal("README.md's Quickstart needs a command block and an output block")
	}
	cmdline, want := strings.TrimSpace(blocks[1]), blocks[3]
	args, ok := strings.CutPrefix(cmdline, "go run ./cmd/benchex ")
	if !ok {
		t.Fatalf("Quickstart command %q does not run ./cmd/benchex", cmdline)
	}
	var stdout, stderr bytes.Buffer
	if code := run(strings.Fields(args), &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\n%s", cmdline, code, stderr.String())
	}
	if got := stdout.String(); got != want {
		t.Errorf("%s prints\n%s\nREADME.md shows\n%s", cmdline, got, want)
	}
}
