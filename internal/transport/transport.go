// Package transport carries NetMax's two message kinds between live worker
// processes: model pulls (worker -> worker) and monitor exchanges
// (iteration-time reports up, policy broadcasts down).
//
// Two implementations are provided: an in-process channel/shared-memory
// transport with injectable artificial latency (used by the examples to
// demonstrate heterogeneity on one machine), and a TCP transport speaking a
// persistent length-prefixed binary frame protocol (used by cmd/netmax-live
// to run a real process group). Both push model payloads through a
// pluggable compression codec (internal/codec) and report encoded
// bytes-on-wire, so compression-aware experiments run identically over
// shared memory and sockets. The discrete-event simulator does not use this
// package; this is the "system" half of the reproduction.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

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

// Peer is a remote worker that models can be pulled from.
type Peer interface {
	// PullModel fetches the peer's freshest parameter vector, returning it
	// undecoded. Callers decode at blend time with their then-current
	// vector (Pull.Decode), so sparse codecs substitute the receiver's
	// live values — not a stale snapshot — on untransmitted coordinates.
	PullModel() (*Pull, error)
}

// Pull is one fetched model before decoding: the wire payload plus the
// codec that produced it.
type Pull struct {
	codec   codec.Codec
	dim     int
	payload []byte
	vec     []float64 // pre-decoded shortcut (lossless in-process pulls)
	wire    int64
}

// NewPull wraps an encoded payload; the Pull takes ownership of it.
func NewPull(c codec.Codec, dim int, payload []byte) *Pull {
	return &Pull{codec: c, dim: dim, payload: payload, wire: int64(len(payload))}
}

// newDecodedPull wraps an already-decoded vector (the in-process raw fast
// path: lossless, so encode/decode would be pure overhead) with the wire
// size the encoding would have had. The Pull takes ownership of vec.
func newDecodedPull(vec []float64, wire int64) *Pull {
	return &Pull{vec: vec, dim: len(vec), wire: wire}
}

// WireBytes is the encoded payload size — the bytes-on-wire figure.
func (p *Pull) WireBytes() int64 { return p.wire }

// NeedsPrior reports whether Decode will consult a prior vector: only
// payload-backed sparse codecs do, so dense and pre-decoded pulls spare
// the receiver the cost of materializing one.
func (p *Pull) NeedsPrior() bool { return p.vec == nil && p.codec.Sparse() }

// Decode reconstructs the pulled vector. prior, when non-nil, supplies the
// receiver's current values for coordinates a sparse codec did not
// transmit (a mismatched length is ignored as stale). The returned slice
// may alias the Pull's internal storage; a Pull is decoded once.
func (p *Pull) Decode(prior []float64) ([]float64, error) {
	if p.vec != nil {
		return p.vec, nil
	}
	return p.codec.Decode(p.payload, p.dim, priorFor(prior, p.dim))
}

// MonitorClient is a worker's view of the Network Monitor.
type MonitorClient interface {
	// ReportTime delivers one smoothed iteration-time observation together
	// with the encoded byte size of the transfer it measured.
	ReportTime(from, to int, secs float64, bytes int64) error
	// FetchPolicy returns the latest (P, rho) and its version; workers
	// poll and apply when the version advances.
	FetchPolicy() (p [][]float64, rho float64, version int, err error)
}

// --- in-process transport ---

// LocalNet is an in-process transport hub: workers register model sources
// and pull from each other with injected latency, emulating a heterogeneous
// network inside one OS process. Pulls round-trip through the configured
// codec, so compression loss and bytes-on-wire match the TCP transport.
type LocalNet struct {
	mu      sync.RWMutex
	sources map[int]ModelSource
	codec   codec.Codec
	down    map[int]bool
	timeout time.Duration
	// Latency returns the artificial one-way delay for a pull from j by i
	// at wall time t. Nil means no delay. A latency at or beyond the pull
	// timeout emulates a hung peer: the pull waits out the deadline and
	// fails with ErrPeerDown.
	Latency func(i, j int, t time.Time) time.Duration

	policyMu sync.RWMutex
	p        [][]float64
	rho      float64
	version  int
	reports  func(from, to int, secs float64, bytes int64)
}

// NewLocalNet creates an empty hub using the raw codec.
func NewLocalNet() *LocalNet {
	return &LocalNet{
		sources: make(map[int]ModelSource),
		codec:   codec.Raw{},
		down:    make(map[int]bool),
	}
}

// SetWorkerDown injects a crash (or recovery) for worker id: while down,
// pulls from it fail immediately with ErrPeerDown — the in-process
// equivalent of a connection refused.
func (l *LocalNet) SetWorkerDown(id int, down bool) {
	l.mu.Lock()
	l.down[id] = down
	l.mu.Unlock()
}

// SetPullTimeout installs the per-call pull deadline: a pull whose
// injected latency reaches the deadline fails with ErrPeerDown after
// waiting it out, emulating a hung (not closed) peer. Zero disables the
// deadline.
func (l *LocalNet) SetPullTimeout(d time.Duration) {
	l.mu.Lock()
	l.timeout = d
	l.mu.Unlock()
}

// Register installs worker id's model source.
func (l *LocalNet) Register(id int, src ModelSource) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sources[id] = src
}

// SetCodec switches the codec applied to subsequent pulls.
func (l *LocalNet) SetCodec(c codec.Codec) {
	if c == nil {
		c = codec.Raw{}
	}
	l.mu.Lock()
	l.codec = c
	l.mu.Unlock()
}

// Peer returns a handle through which worker `from` pulls from worker `to`.
func (l *LocalNet) Peer(from, to int) Peer {
	return &localPeer{net: l, from: from, to: to}
}

type localPeer struct {
	net      *LocalNet
	from, to int
}

func (p *localPeer) PullModel() (*Pull, error) {
	p.net.mu.RLock()
	src, ok := p.net.sources[p.to]
	c := p.net.codec
	down := p.net.down[p.to]
	timeout := p.net.timeout
	p.net.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: no worker %d registered: %w", p.to, ErrPeerDown)
	}
	if down {
		// Crashed process: the connection attempt is refused immediately.
		return nil, fmt.Errorf("transport: worker %d: %w", p.to, ErrPeerDown)
	}
	if p.net.Latency != nil {
		if d := p.net.Latency(p.from, p.to, time.Now()); d > 0 {
			if timeout > 0 && d >= timeout {
				// Hung peer: the pull blocks for the full deadline before
				// the caller gives up.
				time.Sleep(timeout)
				return nil, fmt.Errorf("transport: pull from %d timed out after %v: %w", p.to, timeout, ErrPeerDown)
			}
			time.Sleep(d)
		}
	}
	v := src()
	// Raw is lossless, so the default codec-less hot path keeps the plain
	// copy instead of paying two byte-swapping passes per pull.
	if _, ok := c.(codec.Raw); ok {
		out := make([]float64, len(v))
		copy(out, v)
		return newDecodedPull(out, c.WireBytes(len(v))), nil
	}
	// Encode through the codec: decoding happens at the caller's blend
	// step, carrying exactly the loss a socket transfer would.
	return NewPull(c, len(v), c.AppendEncode(nil, v)), nil
}

// SetPolicy publishes a new communication policy to all workers.
func (l *LocalNet) SetPolicy(p [][]float64, rho float64) {
	l.policyMu.Lock()
	defer l.policyMu.Unlock()
	l.p = p
	l.rho = rho
	l.version++
}

// OnReport installs the monitor-side sink for time reports.
func (l *LocalNet) OnReport(f func(from, to int, secs float64, bytes int64)) {
	l.policyMu.Lock()
	defer l.policyMu.Unlock()
	l.reports = f
}

// Monitor returns the worker-side monitor client.
func (l *LocalNet) Monitor() MonitorClient { return (*localMonitor)(l) }

type localMonitor LocalNet

func (m *localMonitor) ReportTime(from, to int, secs float64, bytes int64) error {
	m.policyMu.RLock()
	f := m.reports
	m.policyMu.RUnlock()
	if f != nil {
		f(from, to, secs, bytes)
	}
	return nil
}

func (m *localMonitor) FetchPolicy() ([][]float64, float64, int, error) {
	m.policyMu.RLock()
	defer m.policyMu.RUnlock()
	return m.p, m.rho, m.version, nil
}
