// Command resexctl is the control client for resexd. It connects to the
// daemon's unix socket, sends one command as a line of JSON, and prints the
// reply.
//
// Usage:
//
//	resexctl [-socket /tmp/resexd.sock] <verb> [args]
//
// Verbs:
//
//	status                        the session's current telemetry sample, as
//	                              resextop prints it: cursor, policy, pacing,
//	                              log size, VM and tenant tables, and per-host
//	                              market lines under the fungible policy
//	run                           resume stepping from the current boundary
//	pause                         hold at the next boundary
//	step [n]                      advance n quanta (default 1, at most 10 s
//	                              of virtual time), then pause
//	run-until <duration>          run to a virtual-time target (e.g. 2s)
//	add-tenant <name> <class> [rate]   class: latency, bulk or open
//	remove-tenant <name>          stop a tenant's traffic
//	policy <name>                 swap pricing policy: none, freemarket,
//	                              ioshares or fungible
//	snapshot <path>               write a verified-restorable snapshot
//	restore <path>                replace the session from a snapshot
//	watch [n]                     stream telemetry samples (n lines, or until ^C)
//	quit                          shut the daemon down
//
// Every verb except watch is a single round trip; exit status is non-zero
// when the daemon rejects the command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"resex/internal/daemon"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: resexctl [-socket path] <verb> [args]")
	fmt.Fprintln(os.Stderr, "verbs: status run pause step run-until add-tenant remove-tenant policy snapshot restore watch quit")
	os.Exit(2)
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "resexctl: "+format+"\n", args...)
	usage()
}

// build turns argv into a Command, validating arity client-side so mistakes
// fail before they reach the daemon.
func build(args []string) daemon.Command {
	verb := args[0]
	rest := args[1:]
	want := func(n int, shape string) {
		if len(rest) != n {
			usageErr("%s takes %s", verb, shape)
		}
	}
	c := daemon.Command{Cmd: verb}
	switch verb {
	case "status", "run", "pause", "quit":
		want(0, "no arguments")
	case "step", "watch":
		if len(rest) == 1 {
			n, err := strconv.ParseInt(rest[0], 10, 64)
			if err != nil || n < 1 {
				usageErr("%s count must be a positive integer, got %q", verb, rest[0])
			}
			c.N = n
			break
		}
		want(0, "an optional count")
	case "run-until":
		want(1, "one duration (virtual time, e.g. 2s)")
		d, err := time.ParseDuration(rest[0])
		if err != nil || d <= 0 {
			usageErr("bad run-until target %q", rest[0])
		}
		c.TNs = d.Nanoseconds()
	case "add-tenant":
		if len(rest) != 2 && len(rest) != 3 {
			usageErr("add-tenant takes <name> <class> [rate]")
		}
		c.Name, c.Class = rest[0], rest[1]
		if len(rest) == 3 {
			rate, err := strconv.ParseFloat(rest[2], 64)
			if err != nil || rate <= 0 {
				usageErr("bad rate %q", rest[2])
			}
			c.Rate = rate
		}
	case "remove-tenant":
		want(1, "one tenant name")
		c.Name = rest[0]
	case "policy":
		want(1, "one policy name (none, freemarket, ioshares, fungible)")
		c.Name = rest[0]
	case "snapshot", "restore":
		want(1, "one file path")
		c.Path = rest[0]
	default:
		usageErr("unknown verb %q", verb)
	}
	return c
}

func main() {
	socket := flag.String("socket", "/tmp/resexd.sock", "daemon unix socket")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := build(flag.Args())

	conn, err := daemon.Dial(*socket)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resexctl: cannot reach daemon at %s: %v\n", *socket, err)
		os.Exit(1)
	}
	defer conn.Close()

	if cmd.Cmd == "watch" {
		// Raw JSON lines for scripting; resextop -attach renders them.
		err := daemon.Watch(conn, int(cmd.N), func(line []byte, _ daemon.Telemetry) {
			os.Stdout.Write(line)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "resexctl:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := daemon.Roundtrip(conn, cmd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "resexctl:", err)
		os.Exit(1)
	}
	if !rep.OK {
		fmt.Fprintln(os.Stderr, "resexctl:", rep.Error)
		os.Exit(1)
	}
	if rep.Status != nil {
		if err := rep.Status.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "resexctl:", err)
			os.Exit(1)
		}
		return
	}
	if rep.Msg != "" {
		fmt.Println(rep.Msg)
	}
}
