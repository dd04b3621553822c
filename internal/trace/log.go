package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"resex/internal/sim"
)

// Workload logs serialize a request stream so an experiment can be re-run
// against the exact same inputs — the role the ICE traces play in the
// paper's BenchEx. The format is a small header followed by fixed-size
// request records in their wire encoding.
const (
	logMagic   = 0x5265456b // "ReEx"
	logVersion = 1
)

// ErrBadLog reports a corrupt or foreign workload log.
var ErrBadLog = errors.New("trace: bad workload log")

// WriteLog serializes requests to w.
func WriteLog(w io.Writer, reqs []Request) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(reqs)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, RequestSize)
	for i := range reqs {
		if err := reqs[i].Encode(buf); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadLog parses a workload log from r.
func ReadLog(r io.Reader) ([]Request, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadLog, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != logMagic {
		return nil, fmt.Errorf("%w: magic mismatch", ErrBadLog)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != logVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadLog, v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if count > 1<<28 {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadLog, count)
	}
	// The header's count is a claim, not a size: preallocate at most a
	// small batch so memory grows with the records actually read.
	reqs := make([]Request, 0, min(count, 1024))
	buf := make([]byte, RequestSize)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadLog, i, err)
		}
		req, err := DecodeRequest(buf)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadLog, i, err)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// Record captures n requests from a generator into a replayable slice.
func Record(g *Generator, n int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, g.Next(0))
	}
	return reqs
}

// Replay feeds a recorded request stream. With Loop set it wraps around
// indefinitely (re-sequencing so every emitted request has a fresh Seq);
// otherwise Next panics past the end — bound the client's Requests to
// len(requests).
type Replay struct {
	reqs []Request
	idx  int
	seq  uint64
	Loop bool
}

// NewReplay creates a replayer over reqs.
func NewReplay(reqs []Request, loop bool) *Replay {
	return &Replay{reqs: reqs, Loop: loop}
}

// Len returns the number of recorded requests.
func (r *Replay) Len() int { return len(r.reqs) }

// Next implements the request-source contract used by BenchEx clients.
func (r *Replay) Next(now sim.Time) Request {
	if r.idx >= len(r.reqs) {
		if !r.Loop || len(r.reqs) == 0 {
			panic("trace: replay exhausted")
		}
		r.idx = 0
	}
	req := r.reqs[r.idx]
	r.idx++
	r.seq++
	req.Seq = r.seq
	req.SentAt = now
	return req
}
