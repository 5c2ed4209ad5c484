// Package transport carries NetMax's two message kinds between live worker
// processes: model pulls (worker -> worker) and monitor exchanges
// (iteration-time reports up, policy broadcasts down).
//
// There is one implementation: worker and monitor servers and their
// persistent-connection clients, speaking the length-prefixed binary frame
// protocol of wire.go (specified in docs/WIRE.md). A Hub wires a whole
// process group over loopback TCP (NewTCPHub) or over in-memory pipes
// (NewLocalHub, one OS process, with optional injected latency); both run
// the same frames, deadlines and redial rule. A hub is configured once:
// Serve fixes its worker sources, codec, per-call deadline and report sink
// before the first pull. Every report ack announces the monitor's policy
// version (MonitorClient.Announced), so workers fetch a policy only when a
// new one exists. Model payloads go through a dense compression
// codec (internal/codec); a pull decodes straight off the wire into the
// caller's buffer and reports its encoded bytes-on-wire, which the puller
// counts. The discrete-event simulator does not use this package; this is
// the "system" half of the reproduction.
package transport

import "errors"

// ErrPeerDown is the typed classification of a dead or unresponsive peer:
// pull and monitor calls that fail because the remote end is gone
// (connection refused, torn down mid-exchange) or silent past the
// configured per-call deadline wrap this sentinel. Callers use
// errors.Is(err, ErrPeerDown) to mask the peer locally until the Network
// Monitor reacts, instead of treating the failure as fatal — churn is an
// expected operating condition, not an exception.
var ErrPeerDown = errors.New("transport: peer down")

// ErrNonFinite rejects a pulled vector that decoded to a NaN or ±Inf
// coordinate. Blending it would poison the puller's model for good, so the
// caller keeps its previous model instead. It does not wrap ErrPeerDown: the
// peer answered, so masking it would hide the fault rather than route
// around a dead link.
var ErrNonFinite = errors.New("transport: pulled vector has a non-finite coordinate")

// ModelSource provides the current model vector of a worker; the transport
// server calls it on every pull. Implementations must be safe for
// concurrent use.
type ModelSource func() []float64
