package daemon

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"resex/internal/snapshot"
)

func testConfig() Config {
	return Config{
		Seed:      7,
		Policy:    "freemarket",
		QuantumNs: int64(DefaultQuantum),
		Tenants:   DefaultTenants(),
	}
}

// telemetryJSON renders a sample canonically for byte-comparison.
func telemetryJSON(t *testing.T, s *Session) string {
	t.Helper()
	j, err := json.Marshal(s.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestSessionSnapshotRestoreDeterminism is the daemon's core property: a
// session driven by live commands, snapshotted mid-flight, restored (with
// byte-for-byte state verification at the capture boundary), and advanced
// further produces the exact telemetry stream of the uninterrupted session.
func TestSessionSnapshotRestoreDeterminism(t *testing.T) {
	drive := func(s *Session) {
		for i := 0; i < 5; i++ {
			s.Step()
		}
		if err := s.Apply(Command{Cmd: "add-tenant", Name: "open1", Class: "open", Rate: 400}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.Step()
		}
		if err := s.Apply(Command{Cmd: "policy", Name: "ioshares"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			s.Step()
		}
	}

	orig, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(orig)
	bundle := orig.Snapshot()

	// The bundle crosses the wire format, as resexd writes it to disk.
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, bundle); err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(decoded)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.Epoch() != orig.Epoch() || restored.Now() != orig.Now() {
		t.Fatalf("restored cursor (%d, %v) != original (%d, %v)",
			restored.Epoch(), restored.Now(), orig.Epoch(), orig.Now())
	}

	// Continue both sessions with a further live command and more quanta;
	// every sample must agree byte-for-byte.
	for i := 0; i < 10; i++ {
		if i == 4 {
			if err := orig.Apply(Command{Cmd: "remove-tenant", Name: "bulk"}); err != nil {
				t.Fatal(err)
			}
			if err := restored.Apply(Command{Cmd: "remove-tenant", Name: "bulk"}); err != nil {
				t.Fatal(err)
			}
		}
		orig.Step()
		restored.Step()
		a, b := telemetryJSON(t, orig), telemetryJSON(t, restored)
		if a != b {
			t.Fatalf("telemetry diverged at continuation step %d:\n%s\n%s", i, a, b)
		}
	}
}

// TestTelemetryPinned pins Session.Telemetry's JSON across commits: the
// SHA-256 of every quantum's sample in a scripted session that adds an open
// tenant and swaps to fungible, so that books exist. The server stamps its
// own fields on top of this sample, and bench/golden.json's daemon digests
// hash this JSON too, so a change here moves them.
func TestTelemetryPinned(t *testing.T) {
	const want = "9006723c4cede6c0404c02f4d6edb235ad6eafedd7af59dfd6c35cd60aaad14e"
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	h := sha256.New()
	for i := 0; i < 20; i++ {
		switch i {
		case 3:
			err = s.Apply(Command{Cmd: "add-tenant", Name: "open1", Class: "open", Rate: 400})
		case 6:
			err = s.Apply(Command{Cmd: "policy", Name: "fungible"})
		}
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		h.Write([]byte(telemetryJSON(t, s) + "\n"))
	}
	if len(s.Books()) == 0 {
		t.Fatal("no trade book after the swap to fungible")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("telemetry digest %s, want %s; last sample:\n%s", got, want, telemetryJSON(t, s))
	}
}

// TestWriteTextScalesMTURateToPerSecond: VMStat.MTURate is MTUs per 1 ms
// ResEx interval, so 2 per interval prints as 2000 under MTU/s, in a
// session sample and in an engine sample, which adds the host and CPU%
// columns.
func TestWriteTextScalesMTURateToPerSecond(t *testing.T) {
	for _, c := range []struct {
		tel  Telemetry
		head string
		col  int
	}{
		{Telemetry{Epoch: 1, Policy: "ioshares"}, "VM", 4},
		{Telemetry{Epoch: 1, Engine: 1}, "host VM CPU%", 6},
	} {
		c.tel.VMs = []VMStat{{Name: "lat-server-vm", Rate: 1, MTURate: 2}}
		var buf bytes.Buffer
		if err := c.tel.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		var head, row []string
		for _, l := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(l)
			if strings.Contains(l, "MTU/s") {
				head = f
			} else if strings.Contains(l, "lat-server-vm") {
				row = f
			}
		}
		if !strings.HasPrefix(strings.Join(head, " "), c.head) || len(row) <= c.col || head[c.col] != "MTU/s" || row[c.col] != "2000" {
			t.Errorf("MTU/s column %d of %q under %q, want 2000 in:\n%s", c.col, row, head, buf.String())
		}
	}
}

// TestRestoreDetectsCorruptReplay holds the verification to its promise: a
// snapshot whose recorded state disagrees with the replay must be rejected,
// not silently accepted.
func TestRestoreDetectsCorruptReplay(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Step()
	}
	b := s.Snapshot()
	// Corrupt one engine counter in the recorded export.
	b.Snaps[0].State.Engine.Steps += 1
	if _, err := Restore(b); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("corrupted snapshot restored without complaint: %v", err)
	}
}

// TestRestoreRejectsWrongKind keeps experiment snapshots out of the daemon.
func TestRestoreRejectsWrongKind(t *testing.T) {
	if _, err := Restore(&snapshot.Bundle{Meta: snapshot.Meta{Kind: "experiment"}}); err == nil {
		t.Fatal("experiment bundle restored as a daemon session")
	}
}

// TestSessionCommandValidation covers the command surface's error paths.
func TestSessionCommandValidation(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []Command{
		{Cmd: "add-tenant", Name: "lat", Class: "latency"}, // duplicate name
		{Cmd: "add-tenant", Name: "x", Class: "warp"},      // unknown class
		{Cmd: "add-tenant", Class: "open"},                 // missing name
		{Cmd: "remove-tenant", Name: "ghost"},              // unknown tenant
		{Cmd: "policy", Name: "laissez-faire"},             // unknown policy
		{Cmd: "step"},                                      // server verb, not session
	}
	logBefore := len(s.Log())
	for _, c := range cases {
		if err := s.Apply(c); err == nil {
			t.Errorf("Apply(%+v) succeeded, want error", c)
		}
	}
	if got := len(s.Log()); got != logBefore {
		t.Errorf("failed commands entered the replay log (%d new entries)", got-logBefore)
	}

	if _, err := ParseCommand([]byte(`{"cmd":"run","bogus":1}`)); err == nil {
		t.Error("ParseCommand accepted an unknown field")
	}
	if _, err := ParseCommand([]byte(`{}`)); err == nil {
		t.Error("ParseCommand accepted a command without a verb")
	}
}

// serveTest boots a server over a fresh session and dials it. It returns
// the server, the channel Serve's result arrives on, and a send function
// that writes one command and reads its reply.
func serveTest(t *testing.T, sc Config, cfg ServerConfig) (*Server, <-chan error, func(Command) Reply) {
	t.Helper()
	s, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	conn := dialTest(t, cfg.Socket)
	r := bufio.NewReader(conn)
	send := func(c Command) Reply {
		t.Helper()
		wire, _ := json.Marshal(c)
		if _, err := conn.Write(append(wire, '\n')); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadReply(r)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	return srv, served, send
}

// dialTest connects to a daemon socket, waiting for it to come up, and
// closes the connection when the test ends.
func dialTest(t *testing.T, socket string) net.Conn {
	t.Helper()
	for i := 0; ; i++ {
		conn, err := Dial(socket)
		if err == nil {
			t.Cleanup(func() { conn.Close() })
			return conn
		}
		if i > 100 {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerWatchAckFirst: on a running session the loop broadcasts
// telemetry between quanta, concurrently with subscriptions. A watcher must
// still read the "watching" ack before any telemetry line; otherwise
// ReadReply decodes a sample as a refusal and resextop -attach exits. A
// 10 µs quantum with no throttle broadcasts often enough that, without the
// fix, a telemetry line slipped ahead of the ack in 19 of 20 runs of 200
// subscriptions (2 CPUs).
func TestServerWatchAckFirst(t *testing.T) {
	sc := testConfig()
	sc.QuantumNs = int64(10 * time.Microsecond)
	sock := filepath.Join(t.TempDir(), "resexd.sock")
	_, served, send := serveTest(t, sc, ServerConfig{Socket: sock})
	if rep := send(Command{Cmd: "run"}); !rep.OK {
		t.Fatalf("run: %s", rep.Error)
	}
	watch, _ := json.Marshal(Command{Cmd: "watch"})
	for i := 0; i < 200; i++ {
		conn := dialTest(t, sock)
		if _, err := conn.Write(append(watch, '\n')); err != nil {
			t.Fatal(err)
		}
		rep, err := ReadReply(bufio.NewReader(conn))
		if err != nil || !rep.OK || rep.Msg != "watching" {
			t.Fatalf("subscription %d: first line %+v (err %v), want the watching ack", i, rep, err)
		}
		conn.Close()
	}
	if rep := send(Command{Cmd: "quit"}); !rep.OK {
		t.Fatalf("quit: %s", rep.Error)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// fakeDaemon serves one watch subscription on a pipe: it reads the watch
// command, writes each of lines verbatim, then hangs up.
func fakeDaemon(t *testing.T, lines ...[]byte) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close() })
	go func() {
		defer server.Close()
		cmd, err := bufio.NewReader(server).ReadBytes('\n')
		if err != nil || !bytes.Contains(cmd, []byte(`"cmd":"watch"`)) {
			return
		}
		for _, l := range lines {
			if _, err := server.Write(l); err != nil {
				return
			}
		}
	}()
	return client
}

// TestWatchClient: the shared watch client of resexctl and resextop fails
// on a refused ack, skips reply lines interleaved on the connection, and
// hands over every sample byte for byte as the server encoded it.
func TestWatchClient(t *testing.T) {
	refused := fakeDaemon(t, []byte(`{"ok":false,"error":"not today"}`+"\n"))
	err := Watch(refused, 1, func([]byte, Telemetry) { t.Error("sample delivered") })
	if err == nil || !strings.Contains(err.Error(), "not today") {
		t.Errorf("refused watch: err %v, want the refusal", err)
	}

	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	var samples []Telemetry
	var encoded []string
	for i := 0; i < 2; i++ {
		s.Step()
		tel := s.Telemetry()
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(TelemetryLine{Telemetry: &tel}); err != nil {
			t.Fatal(err)
		}
		samples = append(samples, tel)
		encoded = append(encoded, b.String())
	}
	reply := `{"ok":true,"msg":"step applied"}` + "\n"
	conn := fakeDaemon(t, []byte(`{"ok":true,"msg":"watching"}`+"\n"),
		[]byte(reply), []byte(encoded[0]), []byte(reply), []byte(encoded[1]))
	var got []string
	err = Watch(conn, 2, func(line []byte, tel Telemetry) {
		if i := len(got); !reflect.DeepEqual(tel, samples[i]) {
			t.Errorf("sample %d decoded as %+v, want %+v", i, tel, samples[i])
		}
		got = append(got, string(line))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != encoded[0] || got[1] != encoded[1] {
		t.Fatalf("raw samples %q, want %q", got, encoded)
	}
}

// TestServerRejectsUnboundedStep: step runs on the session goroutine, so a
// step past the per-command bound (or one whose target time overflows) must
// be refused up front, leaving the daemon free to answer status and quit.
func TestServerRejectsUnboundedStep(t *testing.T) {
	_, served, send := serveTest(t, testConfig(), ServerConfig{Socket: filepath.Join(t.TempDir(), "resexd.sock")})
	for _, n := range []int64{1 << 40, math.MaxInt64, int64(maxStepSpan/DefaultQuantum) + 1} {
		if rep := send(Command{Cmd: "step", N: n}); rep.OK || !strings.Contains(rep.Error, "would advance more than") {
			t.Errorf("step %d: got %+v, want a bound error", n, rep)
		}
	}
	if rep := send(Command{Cmd: "status"}); !rep.OK || rep.Status == nil || rep.Status.Epoch != 0 {
		t.Fatalf("status after the refused steps: %+v", rep)
	}
	if rep := send(Command{Cmd: "step", N: 2}); !rep.OK {
		t.Fatalf("in-bound step refused: %s", rep.Error)
	}
	if rep := send(Command{Cmd: "quit"}); !rep.OK {
		t.Fatalf("quit: %s", rep.Error)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestStatusIsTheWatchSample: status answers with the sample the watch
// stream sent at the same boundary, server-stamped fields included, and a
// fungible session's sample carries its market.
func TestStatusIsTheWatchSample(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "resexd.sock")
	_, served, send := serveTest(t, testConfig(), ServerConfig{Socket: sock})
	if rep := send(Command{Cmd: "policy", Name: "fungible"}); !rep.OK {
		t.Fatalf("policy: %s", rep.Error)
	}
	watcher := dialTest(t, sock)
	watch, _ := json.Marshal(Command{Cmd: "watch"})
	if _, err := watcher.Write(append(watch, '\n')); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(watcher)
	if rep, err := ReadReply(r); err != nil || !rep.OK {
		t.Fatalf("watch: %+v (err %v)", rep, err)
	}
	if rep := send(Command{Cmd: "step", N: 5}); !rep.OK {
		t.Fatalf("step: %s", rep.Error)
	}
	var last TelemetryLine
	for i := 0; i < 5; i++ {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(line, &last); err != nil || last.Telemetry == nil {
			t.Fatalf("sample %d: %q (err %v)", i, line, err)
		}
	}
	rep := send(Command{Cmd: "status"})
	if !rep.OK || rep.Status == nil {
		t.Fatalf("status: %+v", rep)
	}
	sample, _ := json.Marshal(last.Telemetry)
	status, _ := json.Marshal(rep.Status)
	if string(sample) != string(status) {
		t.Fatalf("status %s, want the last watch sample %s", status, sample)
	}
	if st := rep.Status; !st.Paused || st.Epoch != 5 || st.Log != 1 || len(st.Markets) != 1 || len(st.Markets[0].Holders) != 2 {
		t.Fatalf("status after a fungible swap and 5 steps: %s", status)
	}
	if rep := send(Command{Cmd: "quit"}); !rep.OK {
		t.Fatalf("quit: %s", rep.Error)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServerEndToEnd drives a live daemon over its unix socket: status,
// stepping, a live tenant add, snapshot to disk, restore, and quit. The
// durable command log must hold exactly the session's replay log throughout:
// no read-only, pacing or failed verbs, and a restore rolls it back to the
// restored session's log.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "resexd.sock")
	snap := filepath.Join(dir, "run.snap")
	cmdlog := filepath.Join(dir, "commands.jsonl")

	srv, served, send := serveTest(t, testConfig(), ServerConfig{Socket: sock, CommandLog: cmdlog})
	mustOK := func(c Command) Reply {
		t.Helper()
		rep := send(c)
		if !rep.OK {
			t.Fatalf("%s failed: %s", c.Cmd, rep.Error)
		}
		return rep
	}
	logJSON := func(log []snapshot.LogEntry) string {
		j, _ := json.Marshal(log) // log entries always marshal
		return string(j)
	}
	// durable decodes the command-log file, one LogEntry per line.
	durable := func() string {
		t.Helper()
		data, err := os.ReadFile(cmdlog)
		if err != nil {
			t.Fatal(err)
		}
		var log []snapshot.LogEntry
		for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
			var e snapshot.LogEntry
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("command log: %v", err)
			}
			log = append(log, e)
		}
		return logJSON(log)
	}

	rep := mustOK(Command{Cmd: "status"})
	if rep.Status == nil || !rep.Status.Paused || rep.Status.Epoch != 0 {
		t.Fatalf("fresh daemon status: %+v", rep.Status)
	}
	mustOK(Command{Cmd: "step", N: 3})
	mustOK(Command{Cmd: "add-tenant", Name: "open1", Class: "open", Rate: 300})
	mustOK(Command{Cmd: "step", N: 2})
	mustOK(Command{Cmd: "snapshot", Path: snap})
	saved, err := snapshot.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.Log) != 1 || durable() != logJSON(saved.Log) {
		t.Fatalf("command log %s, want the snapshot's replay log %s", durable(), logJSON(saved.Log))
	}
	rep = mustOK(Command{Cmd: "status"})
	if rep.Status.Epoch != 5 || len(rep.Status.Tenants) != 3 || rep.Status.Log != 1 {
		t.Fatalf("post-step status: %+v", rep.Status)
	}
	if bad := send(Command{Cmd: "run-until", TNs: 1}); bad.OK {
		t.Fatal("run-until into the past succeeded")
	}
	mustOK(Command{Cmd: "policy", Name: "ioshares"})
	if got := durable(); strings.Count(got, `"idx"`) != 2 {
		t.Fatalf("command log after a policy swap: %s", got)
	}
	mustOK(Command{Cmd: "restore", Path: snap})
	if got := durable(); got != logJSON(saved.Log) {
		t.Fatalf("command log after restore %s, want the restored log %s", got, logJSON(saved.Log))
	}
	rep = mustOK(Command{Cmd: "status"})
	if rep.Status.Epoch != 5 {
		t.Fatalf("restored status: %+v", rep.Status)
	}
	mustOK(Command{Cmd: "quit"})
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	if got, want := durable(), logJSON(srv.session.Log()); got != want {
		t.Fatalf("command log %s, want the session's replay log %s", got, want)
	}

	// The snapshot must also restore out-of-process.
	s2, err := Restore(saved)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch() != 5 {
		t.Fatalf("offline restore epoch = %d, want 5", s2.Epoch())
	}
	s2.Shutdown()
}

// TestSimShardsConfig pins the SimShards field: it rides in the session
// config (and so in snapshot metadata), it defaults to 1, and two sessions
// differing only in SimShards produce byte-identical telemetry.
func TestSimShardsConfig(t *testing.T) {
	if got := (Config{}).withDefaults().SimShards; got != 1 {
		t.Errorf("default SimShards = %d, want 1", got)
	}

	cfg := testConfig()
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Shutdown()
	cfg.SimShards = 4
	wide, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Shutdown()
	for i := 0; i < 3; i++ {
		serial.Step()
		wide.Step()
	}
	if a, b := telemetryJSON(t, serial), telemetryJSON(t, wide); a != b {
		t.Fatalf("SimShards=4 changed telemetry:\n%s\nvs\n%s", a, b)
	}

	// The width travels in snapshot metadata and survives restore.
	b := wide.Snapshot()
	var meta Config
	if err := json.Unmarshal(b.Meta.Config, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.SimShards != 4 {
		t.Errorf("snapshot config SimShards = %d, want 4", meta.SimShards)
	}
	restored, err := Restore(b)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Shutdown()
	if restored.cfg.SimShards != 4 {
		t.Errorf("restored SimShards = %d", restored.cfg.SimShards)
	}
}
