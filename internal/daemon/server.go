package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"resex/internal/sim"
	"resex/internal/snapshot"
)

// Reply is the server's one-line JSON answer to a command.
type Reply struct {
	OK    bool   `json:"ok"`
	Msg   string `json:"msg,omitempty"`
	Error string `json:"error,omitempty"`
	// Status answers the "status" verb: the sample the watch stream would
	// send at this boundary. Its key is not "telemetry", so Watch skips a
	// status reply that lands on a watching connection.
	Status *Telemetry `json:"status,omitempty"`
}

// TelemetryLine wraps a telemetry sample on the watch stream, so watchers
// can tell samples from command replies: a reply line decodes with a nil
// Telemetry.
type TelemetryLine struct {
	Telemetry *Telemetry `json:"telemetry"`
}

// ServerConfig parameterizes Serve.
type ServerConfig struct {
	// Socket is the unix socket path to listen on.
	Socket string
	// Throttle is the wall-clock pause between quanta while running: 0
	// free-runs (tests, batch), 100ms makes an attached resextop read like
	// live top output.
	Throttle time.Duration
	// CommandLog, when non-empty, names the durable copy of the session's
	// replay log: one JSON line {idx, at_ns, cmd} per applied state command,
	// exactly the log a snapshot carries. The server rewrites it at start,
	// after every successful state command and after a restore.
	CommandLog string
	// Logf receives daemon diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// request is one parsed command plus its reply path. written is closed once
// the reply has been encoded to the client, so quit can hold shutdown until
// its acknowledgement is actually on the wire.
type request struct {
	cmd     Command
	reply   chan Reply
	written chan struct{}
}

// Server drives a session under a unix-socket control loop. All session
// access happens on the loop goroutine: connections only parse commands and
// enqueue them, so commands land exactly at quantum boundaries and the
// session stays single-threaded (and therefore deterministic).
type Server struct {
	cfg     ServerConfig
	ln      net.Listener
	reqs    chan request
	done    chan struct{}
	logf    func(string, ...any)
	session *Session
	// paused and until are the loop's pacing state: a held session, and
	// the run-until target (0: none). Only the loop goroutine uses them.
	paused bool
	until  sim.Time

	mu       sync.Mutex
	watchers map[net.Conn]*json.Encoder
}

// NewServer wraps a session. The caller keeps ownership of cfg.Socket's
// path; any stale socket file there is replaced.
func NewServer(s *Session, cfg ServerConfig) (*Server, error) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.Remove(cfg.Socket); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("daemon: stale socket: %w", err)
	}
	ln, err := net.Listen("unix", cfg.Socket)
	if err != nil {
		return nil, err
	}
	srv := &Server{
		cfg:      cfg,
		ln:       ln,
		reqs:     make(chan request, 16),
		done:     make(chan struct{}),
		logf:     logf,
		session:  s,
		paused:   true, // sessions start held; "run" or "step" sets them moving
		watchers: make(map[net.Conn]*json.Encoder),
	}
	if err := srv.saveLog(); err != nil {
		ln.Close()
		return nil, err
	}
	return srv, nil
}

// Serve accepts connections and runs the session loop until a quit command
// or Close. It returns after the session is shut down.
func (srv *Server) Serve() error {
	srv.logf("resexd: listening on %s (policy %s, quantum %v)",
		srv.cfg.Socket, srv.session.PolicyName(), srv.session.Quantum())
	go srv.acceptLoop()
	srv.loop()
	srv.logf("resexd: session ended at %v (epoch %d)", srv.session.Now(), srv.session.Epoch())
	srv.ln.Close()
	srv.mu.Lock()
	for c := range srv.watchers {
		c.Close()
	}
	srv.mu.Unlock()
	srv.session.Shutdown()
	return nil
}

// Close requests shutdown from outside the loop (signal handlers).
func (srv *Server) Close() {
	written := make(chan struct{})
	close(written) // no client is waiting on this reply
	select {
	case srv.reqs <- request{cmd: Command{Cmd: "quit"}, reply: make(chan Reply, 1), written: written}:
	case <-srv.done:
	}
}

func (srv *Server) acceptLoop() {
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return
		}
		go srv.serveConn(conn)
	}
}

// serveConn reads newline-delimited JSON commands. "watch" subscribes the
// connection to the telemetry stream (it keeps accepting commands too).
func (srv *Server) serveConn(conn net.Conn) {
	defer func() {
		srv.mu.Lock()
		delete(srv.watchers, conn)
		srv.mu.Unlock()
		conn.Close()
	}()
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		cmd, err := ParseCommand(line)
		if err != nil {
			if encErr := enc.Encode(Reply{OK: false, Error: err.Error()}); encErr != nil {
				return
			}
			continue
		}
		if cmd.Cmd == "watch" {
			// Ack inside the critical section that registers the watcher,
			// so no broadcast can put a telemetry line ahead of it.
			srv.mu.Lock()
			srv.watchers[conn] = enc
			err := enc.Encode(Reply{OK: true, Msg: "watching"})
			srv.mu.Unlock()
			if err != nil {
				return
			}
			continue
		}
		req := request{cmd: cmd, reply: make(chan Reply, 1), written: make(chan struct{})}
		select {
		case srv.reqs <- req:
		case <-srv.done:
			enc.Encode(Reply{OK: false, Error: "daemon shutting down"})
			return
		}
		select {
		case rep := <-req.reply:
			err := enc.Encode(rep)
			close(req.written)
			if err != nil {
				return
			}
		case <-srv.done:
			enc.Encode(Reply{OK: false, Error: "daemon shutting down"})
			return
		}
	}
}

// loop owns the session: drain due commands, step one quantum when running,
// broadcast telemetry, repeat. Paused (or target-reached) sessions block on
// the command channel instead of spinning.
func (srv *Server) loop() {
	defer close(srv.done)
	srv.broadcast()
	for {
		if srv.paused || (srv.until != 0 && srv.session.Now() >= srv.until) {
			// Block until someone tells us something.
			if srv.handle(<-srv.reqs) {
				return
			}
			continue
		}
		// Apply everything already queued — commands land between quanta.
		select {
		case req := <-srv.reqs:
			if srv.handle(req) {
				return
			}
			continue
		default:
		}
		srv.session.Step()
		if srv.until != 0 && srv.session.Now() >= srv.until {
			srv.paused, srv.until = true, 0
		}
		srv.broadcast()
		if srv.cfg.Throttle > 0 {
			time.Sleep(srv.cfg.Throttle)
		}
	}
}

// sample is the session's telemetry with what only the server knows
// stamped on: the pacing state, the command-log length and the markets.
func (srv *Server) sample() Telemetry {
	t := srv.session.Telemetry()
	t.Paused = srv.paused
	t.UntilNs = int64(srv.until)
	t.Log = len(srv.session.log)
	t.Markets = MarketRows(srv.session.Books())
	return t
}

// broadcast sends one sample to every watcher, dropping connections whose
// writes fail.
func (srv *Server) broadcast() {
	t := srv.sample()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for conn, enc := range srv.watchers {
		if err := enc.Encode(TelemetryLine{Telemetry: &t}); err != nil {
			delete(srv.watchers, conn)
			conn.Close()
		}
	}
}

// saveLog rewrites the durable command log from the session's replay log.
// It writes a temporary file and renames it over the log, so a reader never
// sees a half-written file.
func (srv *Server) saveLog() error {
	if srv.cfg.CommandLog == "" {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range srv.session.Log() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	tmp := srv.cfg.CommandLog + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, srv.cfg.CommandLog)
}

// maxStepSpan bounds the virtual time one step command may advance. A step
// runs all its quanta inside handle on the session goroutine, so an
// unbounded n would hold off pause, status and quit until it finished; a
// longer advance is run-until, which yields between quanta.
const maxStepSpan = 10 * sim.Second

// handle executes one command at the current boundary. Returns true on
// quit.
func (srv *Server) handle(req request) bool {
	c := req.cmd
	ok := func(format string, args ...any) {
		req.reply <- Reply{OK: true, Msg: fmt.Sprintf(format, args...)}
	}
	fail := func(err error) {
		req.reply <- Reply{OK: false, Error: err.Error()}
	}
	switch c.Cmd {
	case "quit":
		ok("shutting down at %v", srv.session.Now())
		// Hold shutdown until the acknowledgement reaches the client; the
		// timeout covers a client that vanished mid-command.
		select {
		case <-req.written:
		case <-time.After(time.Second):
		}
		return true
	case "status":
		t := srv.sample()
		req.reply <- Reply{OK: true, Status: &t}
	case "pause":
		srv.paused = true
		srv.broadcast()
		ok("paused at %v (epoch %d)", srv.session.Now(), srv.session.Epoch())
	case "run":
		srv.paused, srv.until = false, 0
		ok("running from %v", srv.session.Now())
	case "run-until":
		if sim.Time(c.TNs) <= srv.session.Now() {
			fail(fmt.Errorf("daemon: run-until target %v is not ahead of %v", sim.Time(c.TNs), srv.session.Now()))
			break
		}
		srv.paused, srv.until = false, sim.Time(c.TNs)
		ok("running until %v", sim.Time(c.TNs))
	case "step":
		n := c.N
		if n <= 0 {
			n = 1
		}
		q := srv.session.Quantum()
		if n > max(1, int64(maxStepSpan/q)) || srv.session.Now() > math.MaxInt64-sim.Time(n)*q {
			fail(fmt.Errorf("daemon: step %d would advance more than %v (%d quanta of %v)", n, maxStepSpan, n, q))
			break
		}
		srv.paused, srv.until = false, 0
		for i := int64(0); i < n; i++ {
			srv.session.Step()
			srv.paused = i == n-1
			srv.broadcast()
		}
		ok("stepped %d quanta to %v (epoch %d)", n, srv.session.Now(), srv.session.Epoch())
	case "snapshot":
		if c.Path == "" {
			fail(fmt.Errorf("daemon: snapshot needs a path"))
			break
		}
		if err := snapshot.WriteFile(c.Path, srv.session.Snapshot()); err != nil {
			fail(err)
			break
		}
		ok("snapshot written to %s at %v (epoch %d)", c.Path, srv.session.Now(), srv.session.Epoch())
	case "restore":
		if c.Path == "" {
			fail(fmt.Errorf("daemon: restore needs a path"))
			break
		}
		b, err := snapshot.ReadFile(c.Path)
		if err != nil {
			fail(err)
			break
		}
		s, err := Restore(b)
		if err != nil {
			fail(err)
			break
		}
		old := srv.session
		srv.session = s
		old.Shutdown()
		srv.paused, srv.until = true, 0
		srv.broadcast()
		if err := srv.saveLog(); err != nil {
			fail(fmt.Errorf("daemon: restored %s, but the command log was not written: %w", c.Path, err))
			break
		}
		ok("restored %s: verified at %v (epoch %d)", c.Path, s.Now(), s.Epoch())
	case "add-tenant", "remove-tenant", "policy":
		if err := srv.session.Apply(c); err != nil {
			fail(err)
			break
		}
		if err := srv.saveLog(); err != nil {
			fail(fmt.Errorf("daemon: %s applied, but the command log was not written: %w", c.Cmd, err))
			break
		}
		ok("%s applied at %v (epoch %d)", c.Cmd, srv.session.Now(), srv.session.Epoch())
	default:
		fail(fmt.Errorf("daemon: unknown command %q", c.Cmd))
	}
	return false
}

// Dial connects a client to a daemon socket.
func Dial(socket string) (net.Conn, error) {
	return net.Dial("unix", socket)
}

// Roundtrip sends one command and reads one reply on an established
// connection — the resexctl client's whole protocol.
func Roundtrip(conn net.Conn, c Command) (Reply, error) {
	if err := json.NewEncoder(conn).Encode(c); err != nil {
		return Reply{}, err
	}
	return ReadReply(bufio.NewReader(conn))
}

// Watch subscribes conn to the telemetry stream and calls each with every
// sample: its raw line, newline included, exactly as the server encoded it,
// and the decoded Telemetry. A refused or unreadable ack is an error, and
// lines that are not samples (replies to other commands sent on conn) are
// skipped. It returns nil after n samples, or streams until the connection
// fails when n is 0.
func Watch(conn net.Conn, n int, each func(line []byte, t Telemetry)) error {
	if err := json.NewEncoder(conn).Encode(Command{Cmd: "watch"}); err != nil {
		return err
	}
	r := bufio.NewReader(conn)
	rep, err := ReadReply(r)
	if err != nil {
		return err
	}
	if !rep.OK {
		return fmt.Errorf("daemon: watch refused: %s", rep.Error)
	}
	for seen := 0; n == 0 || seen < n; {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("daemon: stream closed: %w", err)
		}
		var tl TelemetryLine
		if json.Unmarshal(line, &tl) != nil || tl.Telemetry == nil {
			continue
		}
		each(line, *tl.Telemetry)
		seen++
	}
	return nil
}

// ReadReply reads one JSON reply line.
func ReadReply(r *bufio.Reader) (Reply, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return Reply{}, err
	}
	var rep Reply
	if err := json.Unmarshal(line, &rep); err != nil {
		return Reply{}, fmt.Errorf("daemon: bad reply %q: %w", line, err)
	}
	return rep, nil
}
