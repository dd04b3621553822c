package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

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

// TestFigShowsIBMonVsDevice: the paper rig lists only its manager, so
// resextop reaches host 0's monitor through it and prints IBMon's inferred
// bytes, the HCA's bytes and the error. The error is printed, not bounded.
func TestFigShowsIBMonVsDevice(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "resextopArgs=-fig fig7 -duration 100ms")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("resextop -fig fig7: %v", err)
	}
	header := false
	for _, l := range strings.Split(string(out), "\n") {
		f := strings.Fields(l)
		if len(f) == 5 && f[2] == "ibmon-sent" && f[3] == "device-sent" && f[4] == "err%" {
			header = true
			continue
		}
		if !header || len(f) != 5 || f[0] != "0" {
			continue
		}
		inferred, err1 := strconv.ParseInt(f[2], 10, 64)
		device, err2 := strconv.ParseInt(f[3], 10, 64)
		_, err3 := strconv.ParseFloat(f[4], 64)
		if err1 == nil && err2 == nil && err3 == nil && inferred > 0 && device > 0 {
			return
		}
	}
	t.Fatalf("no host 0 IBMon/device line under an ibmon-sent header in:\n%s", out)
}
