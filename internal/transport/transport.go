// Package transport carries NetMax's two message kinds between live worker
// processes: model pulls (worker -> worker) and monitor exchanges
// (iteration-time reports up, policy broadcasts down).
//
// There is one implementation: worker and monitor servers and their
// persistent-connection clients, speaking the length-prefixed binary frame
// protocol of wire.go (specified in docs/WIRE.md). A Hub wires a whole
// process group over loopback TCP (NewTCPHub, used by cmd/netmax-live -tcp)
// or over in-memory pipes (NewLocalHub, one OS process); both run the same
// frames, deadlines and redial rule. Model payloads go through a pluggable
// compression codec (internal/codec) and every pull reports its encoded
// bytes-on-wire. The discrete-event simulator does not use this package;
// this is the "system" half of the reproduction.
package transport

import (
	"errors"
	"fmt"

	"netmax/internal/codec"
)

// ErrPeerDown is the typed classification of a dead or unresponsive peer:
// pull and monitor calls that fail because the remote end is gone
// (connection refused, torn down mid-exchange) or silent past the
// configured per-call deadline wrap this sentinel. Callers use
// errors.Is(err, ErrPeerDown) to mask the peer locally until the Network
// Monitor reacts, instead of treating the failure as fatal — churn is an
// expected operating condition, not an exception.
var ErrPeerDown = errors.New("transport: peer down")

// ModelSource provides the current model vector of a worker; the transport
// server calls it on every pull. Implementations must be safe for
// concurrent use.
type ModelSource func() []float64

// Pull is one fetched model before decoding: the wire payload plus the
// codec that produced it. Callers decode at blend time with their
// then-current vector, so sparse codecs substitute the receiver's live
// values — not a stale snapshot — on untransmitted coordinates.
type Pull struct {
	codec   codec.Codec
	dim     int
	payload []byte
}

// WireBytes is the encoded payload size — the bytes-on-wire figure.
func (p *Pull) WireBytes() int64 { return int64(len(p.payload)) }

// Sparse reports whether DecodeInto consults a prior vector, so dense
// pulls spare the receiver the cost of materializing one.
func (p *Pull) Sparse() bool { return p.codec.Sparse() }

// DecodeInto reconstructs the pulled vector into dst, which must have the
// dimension the peer advertised. prior, when non-nil, supplies the
// receiver's current values for coordinates a sparse codec did not
// transmit; it must have the same length, and it may be dst itself.
func (p *Pull) DecodeInto(dst, prior []float64) error {
	if len(dst) != p.dim {
		return fmt.Errorf("transport: pulled model has dim %d, want %d", p.dim, len(dst))
	}
	return p.codec.DecodeInto(p.payload, dst, prior)
}
