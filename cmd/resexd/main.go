// Command resexd is the long-running control-plane daemon: it hosts a
// multi-tenant simulated cluster advanced in fixed quanta of virtual time
// and exposes it over a unix socket for live control and observation.
//
// Usage:
//
//	resexd -socket /tmp/resexd.sock
//	resexd -policy fungible -tenant lat:latency -tenant bulk:bulk
//	resexd -restore run.snap           # resume a snapshotted session
//	resexd -log commands.jsonl         # durable copy of the replay log
//
// Clients: resexctl sends commands (status, pause/run/step, add-tenant,
// remove-tenant, policy, snapshot, restore, quit); resextop -attach renders
// the telemetry stream as a live table. Commands apply only at quantum
// boundaries and state commands are stamped into a replayable log, so a
// live-driven session remains a reproducible artifact: snapshot it, restore
// it elsewhere, and the replay is verified byte-for-byte (internal/daemon,
// internal/snapshot).
//
// The daemon starts paused; `resexctl run` (or step/run-until) sets virtual
// time moving. SIGINT/SIGTERM shut it down cleanly.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"resex/internal/daemon"
	"resex/internal/snapshot"
)

// tenantFlags collects repeated -tenant name:class[:rate] specs.
type tenantFlags []daemon.TenantConfig

func (t *tenantFlags) String() string { return fmt.Sprint(*t) }

func (t *tenantFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
		return fmt.Errorf("want name:class[:rate], got %q", v)
	}
	tc := daemon.TenantConfig{Name: parts[0], Class: parts[1]}
	if len(parts) == 3 {
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || rate <= 0 {
			return fmt.Errorf("bad rate in %q", v)
		}
		tc.Rate = rate
	}
	*t = append(*t, tc)
	return nil
}

func main() {
	var tenants tenantFlags
	var (
		socket   = flag.String("socket", "/tmp/resexd.sock", "unix socket to listen on")
		seed     = flag.Int64("seed", 0, "session seed (same seed + same commands = same session)")
		hosts    = flag.Int("hosts", 1, "worker hosts")
		policy   = flag.String("policy", "none", "initial pricing policy: none, freemarket, ioshares or fungible")
		quantum  = flag.Duration("quantum", 100*time.Millisecond, "virtual time per step; commands land on these boundaries")
		throttle = flag.Duration("throttle", 100*time.Millisecond, "wall-clock pause between quanta while running (0 = free-run)")
		cmdLog   = flag.String("log", "", "keep this file equal to the session's replay log (JSON lines), rewritten after every state command and restore")
		restore  = flag.String("restore", "", "resume from a snapshot file instead of starting fresh")
	)
	flag.Var(&tenants, "tenant", "initial tenant as name:class[:rate]; repeatable (default lat:latency + bulk:bulk)")
	flag.Parse()

	if *quantum <= 0 {
		fmt.Fprintln(os.Stderr, "resexd: -quantum must be positive")
		os.Exit(2)
	}

	var sess *daemon.Session
	var err error
	if *restore != "" {
		b, rerr := snapshot.ReadFile(*restore)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "resexd:", rerr)
			os.Exit(1)
		}
		sess, err = daemon.Restore(b)
		if err == nil {
			fmt.Fprintf(os.Stderr, "resexd: restored %s, verified at %v (epoch %d)\n",
				*restore, sess.Now(), sess.Epoch())
		}
	} else {
		if len(tenants) == 0 {
			tenants = daemon.DefaultTenants()
		}
		sess, err = daemon.New(daemon.Config{
			Seed:      *seed,
			Hosts:     *hosts,
			Policy:    *policy,
			QuantumNs: quantum.Nanoseconds(),
			Tenants:   tenants,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "resexd:", err)
		os.Exit(1)
	}

	srv, err := daemon.NewServer(sess, daemon.ServerConfig{
		Socket:     *socket,
		Throttle:   *throttle,
		CommandLog: *cmdLog,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "resexd:", err)
		os.Exit(1)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "resexd: caught %v, shutting down\n", sig)
		srv.Close()
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "resexd:", err)
		os.Exit(1)
	}
	os.Remove(*socket)
}
