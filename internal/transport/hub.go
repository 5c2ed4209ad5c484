package transport

import (
	"errors"
	"fmt"
	"net"
	"time"

	"netmax/internal/codec"
)

// Group is the fixed configuration a hub serves: it is handed to Serve
// once, before the first pull, and never changes afterwards.
type Group struct {
	// Sources holds one model source per worker; worker i is Sources[i].
	Sources []ModelSource
	// Times holds one time source per worker, answering the monitor's
	// collects; a worker without one answers with an empty row.
	Times []TimeSource
	// Codec encodes every pull response; nil means raw float64.
	Codec codec.Codec
	// Timeout bounds every pull, collect and push (dial, request,
	// response; a pull's deadline runs from its Request to its Receive):
	// a hung or dead peer costs at most one deadline. Zero disables
	// deadlines.
	Timeout time.Duration
}

// Hub wires a whole NetMax process group: one WorkerServer per worker,
// each on an ephemeral loopback TCP port, and the persistent clients that
// reach them. Every pull, collect and push goes through the same servers,
// clients and wire frames, with kernel deadlines and real connection
// drops. Serve fixes the group; from then on every (from, to) pair, and the
// monitor's link to every worker, reuses one persistent connection for the
// life of the hub.
type Hub struct {
	// listen opens each worker's listener: listenTCP, or a wrapper of it
	// in the tests that record frames.
	listen  func() (net.Listener, error)
	latency func(i, j int) time.Duration

	// Written once by Serve and read-only afterwards.
	served  bool
	workers []*WorkerServer
	peers   [][]*PullClient // peers[from][to]
	ctl     []*ControlClient
}

// NewTCPHub returns a hub whose workers will listen on ephemeral loopback
// ports, answering every pull at once: NewLocalHub(nil). Its error is
// always nil: Serve opens the listeners and reports any that fail. Close
// must be called to release listeners and connections.
func NewTCPHub() (*Hub, error) {
	return NewLocalHub(nil), nil
}

// listenTCP listens on an ephemeral loopback port.
func listenTCP() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// NewLocalHub returns a loopback TCP hub, as NewTCPHub does, with injected
// latency for heterogeneity on one machine. latency, when non-nil, is the
// artificial one-way delay of a pull from worker j by worker i: j's server
// waits it out before answering, so a latency at or beyond the pull
// timeout is a hung peer (the pull fails with ErrPeerDown after one
// deadline). The monitor's collects and pushes get no latency. Close must
// be called to release listeners and connections.
func NewLocalHub(latency func(i, j int) time.Duration) *Hub {
	return &Hub{listen: listenTCP, latency: latency}
}

// Serve starts the group g: one worker server per source, a pull handle
// for every (from, to) pair and a monitor handle for every worker, all
// bound by g.Timeout. It must be called once, before Peer, Control,
// Pushed or SetWorkerDown. A worker whose listener cannot be opened
// (descriptor exhaustion) stays unreachable — pulls at it fail with
// ErrPeerDown — and its error is returned; the rest of the group is
// served.
func (h *Hub) Serve(g Group) error {
	if h.served {
		return errors.New("transport: hub already served")
	}
	h.served = true
	c := g.Codec
	if c == nil {
		c = codec.Raw{}
	}
	m := len(g.Sources)
	var errs []error
	h.workers = make([]*WorkerServer, m)
	addrs := make([]string, m)
	for id, src := range g.Sources {
		ln, err := h.listen()
		if err != nil {
			errs = append(errs, fmt.Errorf("transport: worker %d: %w", id, err))
			continue
		}
		var lat func(from int) time.Duration
		if h.latency != nil {
			lat = func(from int) time.Duration { return h.latency(from, id) }
		}
		var times TimeSource
		if id < len(g.Times) {
			times = g.Times[id]
		}
		h.workers[id] = serveWorker(ln, src, times, c, lat)
		addrs[id] = h.workers[id].Addr()
	}
	h.peers = make([][]*PullClient, m)
	h.ctl = make([]*ControlClient, m)
	for from := range h.peers {
		h.peers[from] = make([]*PullClient, m)
		for to, addr := range addrs {
			h.peers[from][to] = &PullClient{From: from, Addr: addr, Timeout: g.Timeout}
		}
		h.ctl[from] = &ControlClient{Addr: addrs[from], Timeout: g.Timeout}
	}
	return errors.Join(errs...)
}

// SetWorkerDown injects a crash (or recovery) for worker id's endpoint:
// while down, its server tears down live connections and drops incoming
// requests, so peers and the monitor fail fast with ErrPeerDown. Unknown ids are ignored.
func (h *Hub) SetWorkerDown(id int, down bool) {
	if id >= 0 && id < len(h.workers) && h.workers[id] != nil {
		h.workers[id].SetDown(down)
	}
}

// Peer returns the persistent pull handle from worker `from` to worker
// `to`. For an id outside the served group it returns a handle with no
// address, whose pulls fail with ErrPeerDown.
func (h *Hub) Peer(from, to int) *PullClient {
	if from < 0 || from >= len(h.peers) || to < 0 || to >= len(h.peers) {
		return &PullClient{From: from}
	}
	return h.peers[from][to]
}

// Control returns the monitor's persistent handle to worker id's server.
func (h *Hub) Control(id int) *ControlClient { return h.ctl[id] }

// Pushed returns the newest policy the monitor pushed to worker id, or nil
// if none arrived (or id has no server). A worker reads its slot here.
func (h *Hub) Pushed(id int) *Policy {
	if id < 0 || id >= len(h.workers) || h.workers[id] == nil {
		return nil
	}
	return h.workers[id].pushed.Load()
}

// Close stops every server and tears down every client connection,
// waiting for all server goroutines to exit.
func (h *Hub) Close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, row := range h.peers {
		for _, p := range row {
			keep(p.Close())
		}
	}
	for _, c := range h.ctl {
		keep(c.Close())
	}
	for _, srv := range h.workers {
		if srv != nil {
			keep(srv.Close())
		}
	}
	return first
}
