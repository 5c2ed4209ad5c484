// Package transport carries NetMax's messages between live worker
// processes: model pulls (worker -> worker) and the Network Monitor's
// once-per-period exchanges (link-time collects and policy pushes,
// monitor -> worker).
//
// There is one implementation: worker servers and the persistent-connection
// clients that call them, speaking the length-prefixed binary frame
// protocol of wire.go (specified in docs/WIRE.md) over loopback TCP. A Hub
// wires a whole process group: NewTCPHub answers every pull at once, and
// NewLocalHub adds an injected per-pair pull latency, for heterogeneity on
// one machine; both run the same sockets, frames, deadlines and redial
// rule. A hub is configured once:
// Serve fixes its worker model and time sources, codec and per-call
// deadline before the first pull. The monitor side is a ControlClient per
// worker: Collect reads the worker's link times and adopted policy
// version, and Push fills the worker's policy slot, which the worker reads
// with Hub.Pushed. The transport keeps no policy of its own beyond those
// slots: the monitor that generates and numbers policies lives with its
// caller (internal/live). Workers send the monitor nothing. Model payloads go
// through a dense compression codec (internal/codec). A pull is two calls
// on the puller's goroutine: PullClient.Request sends the request and
// starts the deadline, and PullClient.Receive reads the answer, decodes it
// straight off the wire into the caller's buffer and reports its encoded
// bytes-on-wire, which the puller counts; the caller works in between
// while the peer serves the pull. The discrete-event simulator does not use this package; this is the
// "system" half of the reproduction.
package transport

import "errors"

// ErrPeerDown is the typed classification of a dead or unresponsive peer:
// pulls, collects and pushes that fail because the remote end is gone
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

// ModelSource copies a worker's current model vector into dst and returns
// it, allocating a new slice only when dst has the wrong length (nil on the
// first call). The transport server calls it on every pull with a buffer
// its connection owns, and encodes the result after the call returns, so
// an implementation holds its lock for the copy alone. Implementations
// must be safe for concurrent use.
type ModelSource func(dst []float64) []float64

// LinkTime is one link's entry in a worker's collect answer: the worker's
// EMA iteration time over the link and how many times it has observed it.
type LinkTime struct {
	Secs  float64
	Count uint64
}

// TimeSource answers the monitor's collect for one worker: it copies the
// worker's link times, one entry per worker of the group, into dst as
// ModelSource copies the model, and returns them with the policy version
// the worker has adopted. Implementations must be safe for concurrent use
// and must not wait for the worker's training step.
type TimeSource func(dst []LinkTime) (row []LinkTime, adopted int)

// Policy is a communication policy as it travels to the workers: the
// matrix P, the consensus weight ρ, and its version, which the monitor
// numbers 1, 2, … as it generates policies. A worker's slot keeps the
// highest version pushed to it.
type Policy struct {
	P       [][]float64
	Rho     float64
	Version int
}
