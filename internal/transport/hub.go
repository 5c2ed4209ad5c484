package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"netmax/internal/codec"
)

// Hub wires a whole NetMax process group: one WorkerServer per registered
// worker plus one MonitorServer, reached over loopback TCP (NewTCPHub) or
// over in-memory pipes (NewLocalHub). Either way every pull and monitor
// call goes through the same servers, clients and wire frames. Peer and
// monitor handles are cached, so every (from, to) pair reuses one
// persistent connection for the life of the hub.
type Hub struct {
	// Latency returns the artificial one-way delay of a pull from j by i
	// at wall time t; nil means no delay. Worker j's server waits it out
	// before answering, so a latency at or beyond the pull timeout is a
	// hung peer: the pull fails with ErrPeerDown after one deadline. Set it
	// before the pulls it should affect.
	Latency func(i, j int, t time.Time) time.Duration

	listen func() (net.Listener, error)
	dial   dialer

	mu          sync.RWMutex
	workers     map[int]*WorkerServer
	addrs       map[int]string
	peers       map[[2]int]*PullClient
	clients     []*MonitorClient
	codec       codec.Codec
	pullTimeout time.Duration
	mon         *MonitorServer

	reportMu sync.RWMutex
	report   func(from, to int, secs float64, bytes int64)
}

// NewTCPHub starts the monitor endpoint on loopback TCP and returns an
// empty hub whose workers listen on ephemeral loopback ports. Close must
// be called to release listeners and connections.
func NewTCPHub() (*Hub, error) {
	return newHub(func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }, dialTCP)
}

// NewLocalHub returns an empty hub whose connections are in-memory pipes
// inside this process. Close must be called to stop its servers.
func NewLocalHub() *Hub {
	pn := &pipeNet{listeners: make(map[string]*pipeListener)}
	h, _ := newHub(pn.listen, pn.dial) // listening on a pipeNet cannot fail
	return h
}

func newHub(listen func() (net.Listener, error), dial dialer) (*Hub, error) {
	h := &Hub{
		listen:  listen,
		dial:    dial,
		workers: make(map[int]*WorkerServer),
		addrs:   make(map[int]string),
		peers:   make(map[[2]int]*PullClient),
		codec:   codec.Raw{},
	}
	ln, err := listen()
	if err != nil {
		return nil, fmt.Errorf("transport: start monitor: %w", err)
	}
	h.mon = serveMonitor(ln, func(from, to int, secs float64, bytes int64) {
		h.reportMu.RLock()
		f := h.report
		h.reportMu.RUnlock()
		if f != nil {
			f(from, to, secs, bytes)
		}
	})
	return h, nil
}

// Register starts a server answering pulls for worker id, encoding
// responses with the hub's current codec and delaying them by Latency.
func (h *Hub) Register(id int, src ModelSource) {
	ln, err := h.listen()
	if err != nil {
		// Registration failures surface on the first pull; a hub on
		// loopback with ephemeral ports only fails under fd exhaustion.
		return
	}
	srv := serveWorker(ln, src, func(from int) time.Duration {
		if h.Latency == nil {
			return 0
		}
		return h.Latency(from, id, time.Now())
	})
	h.mu.Lock()
	srv.SetCodec(h.codec)
	h.workers[id] = srv
	h.addrs[id] = srv.Addr()
	h.mu.Unlock()
}

// SetCodec switches the codec on every registered worker server (and on
// workers registered afterwards).
func (h *Hub) SetCodec(c codec.Codec) {
	if c == nil {
		c = codec.Raw{}
	}
	h.mu.Lock()
	h.codec = c
	for _, srv := range h.workers {
		srv.SetCodec(c)
	}
	h.mu.Unlock()
}

// SetPullTimeout installs the per-call deadline on every cached peer and
// monitor handle and on handles created afterwards. Zero disables
// deadlines.
func (h *Hub) SetPullTimeout(d time.Duration) {
	h.mu.Lock()
	h.pullTimeout = d
	for _, p := range h.peers {
		p.SetTimeout(d)
	}
	for _, c := range h.clients {
		c.SetTimeout(d)
	}
	h.mu.Unlock()
}

// SetWorkerDown injects a crash (or recovery) for worker id's endpoint:
// while down, its server tears down live connections and drops incoming
// pulls, so peers fail fast with ErrPeerDown. Unknown ids are ignored.
func (h *Hub) SetWorkerDown(id int, down bool) {
	h.mu.RLock()
	srv := h.workers[id]
	h.mu.RUnlock()
	if srv != nil {
		srv.SetDown(down)
	}
}

// Peer returns the persistent pull handle from worker `from` to worker
// `to`, creating it on first use. Before `to` registers, the returned
// handle has no address (pulls fail) and is not cached, so a later call
// picks up the registered address.
func (h *Hub) Peer(from, to int) *PullClient {
	key := [2]int{from, to}
	h.mu.RLock()
	p, ok := h.peers[key]
	h.mu.RUnlock()
	if ok {
		return p
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[key]; ok {
		return p
	}
	addr, registered := h.addrs[to]
	p = &PullClient{From: from, Addr: addr, Timeout: h.pullTimeout, pc: persistentConn{dial: h.dial}}
	if registered {
		h.peers[key] = p
	}
	return p
}

// Monitor returns a worker-side monitor client on its own persistent
// connection; the hub closes it on Close.
func (h *Hub) Monitor() *MonitorClient {
	h.mu.Lock()
	c := &MonitorClient{Addr: h.mon.Addr(), Timeout: h.pullTimeout, pc: persistentConn{dial: h.dial}}
	h.clients = append(h.clients, c)
	h.mu.Unlock()
	return c
}

// SetPolicy publishes a policy through the monitor endpoint.
func (h *Hub) SetPolicy(p [][]float64, rho float64) {
	h.mon.SetPolicy(p, rho)
}

// OnReport installs the monitor-side sink for time reports.
func (h *Hub) OnReport(f func(from, to int, secs float64, bytes int64)) {
	h.reportMu.Lock()
	h.report = f
	h.reportMu.Unlock()
}

// Close stops every server and tears down every cached client
// connection, waiting for all server goroutines to exit.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for _, p := range h.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, c := range h.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, srv := range h.workers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := h.mon.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
