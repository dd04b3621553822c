package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"resex/internal/daemon"
)

func TestRenderScalesMTURateToPerSecond(t *testing.T) {
	// VMStat.MTURate is MTUs per 1 ms ResEx interval: 2 per interval is
	// 2000 per second, the unit renderVMs prints under the same header.
	var buf bytes.Buffer
	render(&buf, daemon.Telemetry{
		Epoch: 1, Policy: "ioshares",
		VMs: []daemon.VMStat{{Name: "lat-server-vm", Rate: 1, MTURate: 2}},
	})
	lines := strings.Split(buf.String(), "\n")
	var row []string
	for _, l := range lines {
		if strings.HasPrefix(l, "lat-server-vm") {
			row = strings.Fields(l)
		}
	}
	if len(row) < 5 || row[4] != "2000" {
		t.Fatalf("MTU/s column of %q, want 2000 in:\n%s", row, buf.String())
	}
}

// TestMain runs main itself when a test re-executes the test binary with
// resextopArgs set, so the flag checks are tested through the real exit
// path.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("resextopArgs"); ok {
		os.Args = append([]string{"resextop"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlagErrors(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-samples 3", "-samples applies only to -attach"},
		{"-samples 0", "-samples applies only to -attach"},
		{"-fig fig7 -samples 3", "-samples applies only to -attach"},
		{"-attach none.sock -samples -1", "-samples must not be negative"},
		{"-fig fig7 -attach none.sock", "-fig and -attach are exclusive"},
		{"-fig fig7 -policy ioshares", "-policy applies only to the default session"},
		{"-refresh 0s", "-refresh must be positive"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "resextopArgs="+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("resextop %s: %v, stderr %q; want exit 2 with %q", c.args, err, stderr.String(), c.want)
		}
	}
}
