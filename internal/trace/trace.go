// Package trace generates the synthetic electronic-exchange workload that
// drives BenchEx, standing in for the proprietary ICE traces the paper's
// benchmark was modeled on. It provides
//
//   - an instrument universe whose spot prices follow a bounded random walk,
//   - a request stream mixing order submissions, cancels, quote requests
//     and market-data feed requests, each carrying option parameters, and
//   - the binary wire encoding of requests and responses that actually
//     travels through the simulated RDMA fabric (BenchEx deposits these
//     bytes in guest memory; the server parses them back out).
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"resex/internal/sim"
)

// RequestType is the kind of transaction a client submits.
type RequestType uint32

// Request types, roughly the mix of an options exchange gateway.
const (
	NewOrder RequestType = iota + 1
	CancelOrder
	QuoteRequest
	FeedRequest
)

// String names the request type.
func (rt RequestType) String() string {
	switch rt {
	case NewOrder:
		return "new-order"
	case CancelOrder:
		return "cancel"
	case QuoteRequest:
		return "quote"
	case FeedRequest:
		return "feed"
	default:
		return fmt.Sprintf("type(%d)", uint32(rt))
	}
}

// Side is the order side.
type Side uint16

// Order sides.
const (
	Buy Side = iota + 1
	Sell
)

// OptionKind distinguishes calls from puts.
type OptionKind int

// Option kinds.
const (
	Call OptionKind = iota
	Put
)

// Option holds the parameters of the European option a request refers to.
// They are request payload: the server charges CPU time per request
// (benchex.ServerConfig.ProcessTime) instead of pricing them.
type Option struct {
	Kind   OptionKind
	Spot   float64 // current underlying price
	Strike float64
	Rate   float64 // continuously compounded risk-free rate
	Vol    float64 // annualized volatility
	Expiry float64 // time to expiry in years
}

// Request is one client transaction.
type Request struct {
	Seq      uint64
	SentAt   sim.Time // client timestamp (the paper's request timestamping)
	Type     RequestType
	SymbolID uint32
	Side     Side
	Qty      uint32
	Option   Option // parameters of the instrument's option series
}

// Response is the server's reply.
type Response struct {
	Seq      uint64
	SentAt   sim.Time // echoed client timestamp
	ServerAt sim.Time // server completion timestamp
	Status   uint32
}

// Wire sizes.
const (
	RequestSize  = 72
	ResponseSize = 32
	reqMagic     = 0xB17C
	respMagic    = 0xE8C4
)

// Errors for wire decoding.
var (
	ErrShortBuffer = errors.New("trace: buffer too small")
	ErrBadMagic    = errors.New("trace: bad magic (corrupt or foreign bytes)")
)

// Encode writes the request's wire form into b (at least RequestSize bytes).
func (r *Request) Encode(b []byte) error {
	if len(b) < RequestSize {
		return ErrShortBuffer
	}
	le := binary.LittleEndian
	le.PutUint64(b[0:], r.Seq)
	le.PutUint64(b[8:], uint64(r.SentAt))
	le.PutUint32(b[16:], uint32(r.Type))
	le.PutUint32(b[20:], r.SymbolID)
	le.PutUint64(b[24:], floatBits(r.Option.Spot))
	le.PutUint64(b[32:], floatBits(r.Option.Strike))
	le.PutUint64(b[40:], floatBits(r.Option.Vol))
	le.PutUint64(b[48:], floatBits(r.Option.Expiry))
	le.PutUint64(b[56:], floatBits(r.Option.Rate))
	le.PutUint16(b[64:], uint16(r.Side))
	le.PutUint16(b[66:], uint16(r.Option.Kind))
	le.PutUint16(b[68:], uint16(r.Qty))
	le.PutUint16(b[70:], reqMagic)
	return nil
}

// DecodeRequest parses a request from its wire form.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < RequestSize {
		return Request{}, ErrShortBuffer
	}
	le := binary.LittleEndian
	if le.Uint16(b[70:]) != reqMagic {
		return Request{}, ErrBadMagic
	}
	return Request{
		Seq:      le.Uint64(b[0:]),
		SentAt:   sim.Time(le.Uint64(b[8:])),
		Type:     RequestType(le.Uint32(b[16:])),
		SymbolID: le.Uint32(b[20:]),
		Side:     Side(le.Uint16(b[64:])),
		Qty:      uint32(le.Uint16(b[68:])),
		Option: Option{
			Kind:   OptionKind(le.Uint16(b[66:])),
			Spot:   bitsFloat(le.Uint64(b[24:])),
			Strike: bitsFloat(le.Uint64(b[32:])),
			Vol:    bitsFloat(le.Uint64(b[40:])),
			Expiry: bitsFloat(le.Uint64(b[48:])),
			Rate:   bitsFloat(le.Uint64(b[56:])),
		},
	}, nil
}

// Encode writes the response's wire form into b (at least ResponseSize).
func (r *Response) Encode(b []byte) error {
	if len(b) < ResponseSize {
		return ErrShortBuffer
	}
	le := binary.LittleEndian
	le.PutUint64(b[0:], r.Seq)
	le.PutUint64(b[8:], uint64(r.SentAt))
	le.PutUint64(b[16:], uint64(r.ServerAt))
	le.PutUint32(b[24:], r.Status)
	le.PutUint32(b[28:], respMagic)
	return nil
}

// DecodeResponse parses a response from its wire form.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < ResponseSize {
		return Response{}, ErrShortBuffer
	}
	le := binary.LittleEndian
	if le.Uint32(b[28:]) != respMagic {
		return Response{}, ErrBadMagic
	}
	return Response{
		Seq:      le.Uint64(b[0:]),
		SentAt:   sim.Time(le.Uint64(b[8:])),
		ServerAt: sim.Time(le.Uint64(b[16:])),
		Status:   le.Uint32(b[24:]),
	}, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func bitsFloat(u uint64) float64 { return math.Float64frombits(u) }
