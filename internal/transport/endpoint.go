package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netmax/internal/codec"
)

// The endpoints speak the persistent binary wire protocol of wire.go:
// clients dial once and exchange length-prefixed frames (message kind +
// codec id + payload) over the same connection for the life of the run.
// The connection is a loopback TCP socket, with the kernel's deadlines
// and connection drops.
// Model payloads go through a dense codec (internal/codec), and every pull
// reports its encoded byte size, so the puller accounts for real
// bytes-on-wire.

// --- worker server ---

// WorkerServer answers one worker's requests over persistent connections:
// model pulls from its peers, encoded with one codec, and the monitor's
// collects and pushes. It tracks its live connections so that Close and
// SetDown can unblock handler reads.
type WorkerServer struct {
	ln    net.Listener
	src   ModelSource
	times TimeSource // nil answers collects with an empty row
	codec codec.Codec
	// latency, when non-nil, is the artificial delay before answering a
	// pull by worker `from`; the hub installs it for latency injection.
	latency func(from int) time.Duration
	down    atomic.Bool
	// pushed is the policy slot: the newest policy the monitor pushed.
	pushed atomic.Pointer[Policy]

	wg    sync.WaitGroup // the accept loop and every handler
	mu    sync.Mutex     // guards conns and the closing of done
	conns map[net.Conn]struct{}
	done  chan struct{} // closed by Close; ends handlers' waits too
}

// serveWorker starts the accept loop on ln, serving each connection in
// its own goroutine until Close.
func serveWorker(ln net.Listener, src ModelSource, times TimeSource, c codec.Codec, latency func(from int) time.Duration) *WorkerServer {
	s := &WorkerServer{ln: ln, src: src, times: times, codec: c, latency: latency,
		conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.serve()
	return s
}

// serve runs the accept loop. It returns when the listener is closed.
func (s *WorkerServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Accept fails permanently once the listener closes (and
			// transiently under fd exhaustion); either way, stop if Close
			// ran, otherwise back off briefly and keep accepting — a bare
			// retry would spin a core exactly when fds are scarce.
			select {
			case <-s.done:
				return
			case <-time.After(10 * time.Millisecond):
				continue
			}
		}
		if !s.track(conn) {
			conn.Close() // lost the race with Close
			continue
		}
		s.wg.Add(1)
		go func(c net.Conn) {
			defer s.wg.Done()
			defer s.untrack(c)
			defer c.Close()
			s.handle(c)
		}(conn)
	}
}

func (s *WorkerServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.isClosed() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *WorkerServer) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *WorkerServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// SetDown injects a crash (or recovery) for this worker's endpoint: while
// down, live connections are torn down and incoming requests are dropped
// without a response, so clients fail fast with ErrPeerDown. The listener
// stays open — recovery is just SetDown(false), like a process restart on
// the same port.
func (s *WorkerServer) SetDown(down bool) {
	s.down.Store(down)
	if down {
		s.dropConns()
	}
}

// dropConns force-closes every live connection without touching the
// listener: existing peers see their exchanges fail as if the process
// died.
func (s *WorkerServer) dropConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Addr returns the listener's address.
func (s *WorkerServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server: it shuts the listener, force-closes every live
// connection (unblocking handler reads), and waits for the accept loop
// and every handler goroutine to exit.
func (s *WorkerServer) Close() error {
	s.mu.Lock()
	if s.isClosed() {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	close(s.done)
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// serverConn holds the buffers one served connection reuses for every
// answer.
type serverConn struct {
	vec  []float64
	row  []LinkTime
	wbuf []byte
}

// handle serves one persistent connection: request frames in, answers
// out, until the peer hangs up or Close tears the connection down.
func (s *WorkerServer) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var rbuf []byte
	var sc serverConn
	for {
		kind, _, body, err := readFrame(r, &rbuf)
		if err != nil {
			return
		}
		if s.down.Load() {
			return // crashed: drop the connection without answering
		}
		respKind, codecID, resp, ok := s.answer(&sc, kind, body)
		if !ok {
			return // protocol violation; drop the connection
		}
		if err := writeFrame(w, respKind, codecID, resp); err != nil {
			return
		}
	}
}

// answer builds the response to one request frame in sc's buffers. It
// reports false for a frame the server does not accept: an unknown or
// retired kind, or a malformed body.
func (s *WorkerServer) answer(sc *serverConn, kind uint8, body []byte) (respKind, codecID uint8, resp []byte, ok bool) {
	switch kind {
	case msgPull:
		from, err := parsePullReq(body)
		if err != nil || !s.wait(from) {
			return 0, 0, nil, false
		}
		sc.vec = s.src(sc.vec)
		sc.wbuf = appendPullResp(sc.wbuf[:0], sc.vec, s.codec)
		return msgPullResp, s.codec.ID(), sc.wbuf, true
	case msgCollect:
		if len(body) != 0 {
			return 0, 0, nil, false
		}
		adopted := 0
		if s.times != nil {
			sc.row, adopted = s.times(sc.row)
		}
		sc.wbuf = appendCollectResp(sc.wbuf[:0], sc.row, adopted)
		return msgCollectResp, 0, sc.wbuf, true
	case msgPush:
		p, err := parsePush(body)
		if err != nil {
			return 0, 0, nil, false
		}
		s.offer(p)
		return msgPushAck, 0, nil, true
	}
	return 0, 0, nil, false
}

// offer fills the policy slot with p unless it already holds p's version
// or a newer one, so a re-sent push changes nothing.
func (s *WorkerServer) offer(p *Policy) {
	for {
		cur := s.pushed.Load()
		if cur != nil && cur.Version >= p.Version {
			return
		}
		if s.pushed.CompareAndSwap(cur, p) {
			return
		}
	}
}

// wait holds a pull by worker `from` for its injected latency. A latency
// past the puller's deadline makes this a hung peer: the puller gives up
// after one deadline while the server still waits. It reports false when
// Close ends the wait.
func (s *WorkerServer) wait(from int) bool {
	if s.latency == nil {
		return true
	}
	d := s.latency(from)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

// --- persistent client connection ---

// persistentConn is the shared client chassis: one lazily dialed
// connection plus the frame request/response exchange with its retry
// policy. An exchange is send followed by recv; owners serialize
// exchanges with their own mutex.
type persistentConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rbuf []byte
	// resent records that the exchange in flight has used its one re-send.
	resent bool
}

// send writes one request frame to addr, dialing first if there is no
// connection. A positive timeout becomes the deadline of the whole
// exchange: the dial, the write, whatever the caller does before recv, and
// the response read. A dead connection is redialed and the request re-sent
// once, here or in recv: every request kind is idempotent (pulls and
// collects only read — the monitor ingests a link only when its
// observation count grew — and the policy slot ignores a version it already
// holds), so a request the server may already have processed is safe to
// re-send. An expired deadline is never retried: the peer is hung, not
// restarted, and a retry would redial the still-listening socket and wait
// out a second full deadline — doubling the documented one-deadline cost
// of a hung peer.
func (pc *persistentConn) send(addr string, timeout time.Duration, kind uint8, body []byte) error {
	pc.resent = false
	retry, err := pc.write(addr, timeout, kind, body)
	if retry {
		pc.resent = true
		_, err = pc.write(addr, timeout, kind, body)
	}
	return err
}

// recv reads the response to the request send wrote, which must be passed
// again as kind and body for a re-send. The returned body aliases the
// connection's read buffer and is valid until the next exchange.
func (pc *persistentConn) recv(addr string, timeout time.Duration, kind uint8, body []byte, wantKind uint8) ([]byte, uint8, error) {
	for {
		respKind, codecID, resp, err := readFrame(pc.r, &pc.rbuf)
		if err != nil {
			pc.drop()
			if pc.resent || isTimeout(err) {
				return nil, 0, fmt.Errorf("transport: %s: %w", addr, err)
			}
			pc.resent = true
			if _, err := pc.write(addr, timeout, kind, body); err != nil {
				return nil, 0, err
			}
			continue
		}
		if respKind != wantKind {
			pc.drop()
			return nil, 0, fmt.Errorf("%w: unexpected frame kind %d, want %d", errProtocol, respKind, wantKind)
		}
		return resp, codecID, nil
	}
}

// roundTrip is send followed at once by recv.
func (pc *persistentConn) roundTrip(addr string, timeout time.Duration, kind uint8, body []byte, wantKind uint8) ([]byte, uint8, error) {
	if err := pc.send(addr, timeout, kind, body); err != nil {
		return nil, 0, err
	}
	return pc.recv(addr, timeout, kind, body, wantKind)
}

// write makes one attempt at sending a request frame: it dials if there is
// no connection, sets the deadline and writes. It reports whether a
// failure may be retried: a write on a connection that died, but neither a
// failed dial nor an expired deadline.
func (pc *persistentConn) write(addr string, timeout time.Duration, kind uint8, body []byte) (retry bool, err error) {
	if err := pc.ensure(addr, timeout); err != nil {
		return false, err
	}
	if timeout > 0 {
		pc.conn.SetDeadline(time.Now().Add(timeout))
	}
	if err := writeFrame(pc.w, kind, 0, body); err != nil {
		pc.drop()
		return !isTimeout(err), fmt.Errorf("transport: %s: %w", addr, err)
	}
	return false, nil
}

func (pc *persistentConn) ensure(addr string, timeout time.Duration) error {
	if pc.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	pc.conn = conn
	pc.r = bufio.NewReader(conn)
	pc.w = bufio.NewWriter(conn)
	return nil
}

// isTimeout reports whether err is (or wraps) a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// errProtocol marks wire-protocol violations (wrong frame kind, corrupt
// payloads): evidence of version skew or a framing bug, not of a dead
// peer. Pull failures carrying it must NOT classify as ErrPeerDown —
// masking a healthy peer would turn a hard bug into silent degradation.
var errProtocol = errors.New("transport: protocol violation")

func (pc *persistentConn) drop() error {
	if pc.conn == nil {
		return nil
	}
	err := pc.conn.Close()
	pc.conn, pc.r, pc.w = nil, nil, nil
	return err
}

// --- worker client ---

// PullClient pulls models from a remote worker address over one persistent
// connection, redialing transparently if the connection drops. The zero
// value with Addr set is ready to use over TCP; it is safe for concurrent
// use. A pull is Request followed by Receive, so that the caller can work
// while the peer serves it. A positive
// Timeout bounds every pull from its Request (dial + request + the
// caller's work + response): a hung or dead peer then fails with an error
// wrapping ErrPeerDown instead of blocking the worker forever. Set the
// fields before the first pull.
type PullClient struct {
	From    int
	Addr    string
	Timeout time.Duration

	mu   sync.Mutex // held from Request to Receive
	pc   persistentConn
	wbuf []byte
	// sendErr is the failure of the in-flight pull's request, which
	// Receive returns.
	sendErr error
}

// Request sends a pull request for the peer's freshest parameter vector
// and starts the pull's deadline. It holds the client until Receive, which
// the caller must call next, from the same goroutine or not; a failure to
// send is returned by that Receive.
func (p *PullClient) Request() {
	p.mu.Lock()
	p.wbuf = appendPullReq(p.wbuf[:0], p.From)
	p.sendErr = p.pc.send(p.Addr, p.Timeout, msgPull, p.wbuf)
}

// Receive completes the pull Request started: it reads the answer and
// decodes it straight from the connection's read buffer into dst,
// returning the encoded payload size (the bytes-on-wire figure). dst must
// have the dimension the peer serves. Transport-level failures — refused
// or dropped connections, deadline expiry — classify as ErrPeerDown: the
// peer is gone or unresponsive, and the caller should mask it until the
// monitor reacts. A malformed response (unknown codec id, wrong dimension,
// corrupt payload) is a protocol error, and a vector with a NaN or ±Inf
// coordinate fails with ErrNonFinite; neither wraps ErrPeerDown. On any
// error dst's contents are unspecified.
func (p *PullClient) Receive(dst []float64) (wireBytes int64, err error) {
	defer p.mu.Unlock()
	if p.sendErr != nil {
		return 0, peerErr(p.sendErr)
	}
	body, codecID, err := p.pc.recv(p.Addr, p.Timeout, msgPull, p.wbuf, msgPullResp)
	if err != nil {
		return 0, peerErr(err)
	}
	payload, err := decodePullResp(body, codecID, dst)
	switch {
	case errors.Is(err, codec.ErrNonFinite):
		// The frame was well formed: keep the connection.
		return 0, ErrNonFinite
	case err != nil:
		p.pc.drop()
		return 0, err
	}
	return int64(len(payload)), nil
}

// Close tears down the persistent connection, if any.
func (p *PullClient) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pc.drop()
}

// peerErr classifies a failed round trip: a protocol violation (version
// skew, a framing bug) stays as it is, since the peer is not down; anything
// else wraps ErrPeerDown.
func peerErr(err error) error {
	if errors.Is(err, errProtocol) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrPeerDown, err)
}

// --- monitor client ---

// ControlClient is the Network Monitor's persistent-connection client to
// one worker's server: it collects the worker's link times and pushes
// policies. The zero value with Addr set is ready to use over TCP; it is
// safe for concurrent use (calls serialize on one connection). A positive
// Timeout bounds each call the same way PullClient.Timeout bounds pulls.
// Failures classify as Receive's do.
type ControlClient struct {
	Addr    string
	Timeout time.Duration

	mu   sync.Mutex
	pc   persistentConn
	wbuf []byte
}

// Collect reads the worker's link times into row, which must have one
// entry per worker of the group, and returns the policy version the worker
// has adopted. Only the counts tell new observations from ones an earlier
// collect already returned. On any error row's contents are unspecified.
func (c *ControlClient) Collect(row []LinkTime) (adopted int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, _, err := c.pc.roundTrip(c.Addr, c.Timeout, msgCollect, c.wbuf[:0], msgCollectResp)
	if err != nil {
		return 0, peerErr(err)
	}
	adopted, err = decodeCollectResp(body, row)
	if err != nil {
		c.pc.drop()
	}
	return adopted, err
}

// Push fills the worker's policy slot with p, unless the slot already
// holds p's version or a newer one. p's matrix must have at least one row
// and rows of one nonzero length.
func (c *ControlClient) Push(p *Policy) error {
	if err := checkPushShape(p.P); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wbuf = appendPush(c.wbuf[:0], p)
	body, _, err := c.pc.roundTrip(c.Addr, c.Timeout, msgPush, c.wbuf, msgPushAck)
	if err != nil {
		return peerErr(err)
	}
	if len(body) != 0 {
		c.pc.drop()
		return fmt.Errorf("%w: push ack body %d bytes, want 0", errProtocol, len(body))
	}
	return nil
}

// Close tears down the persistent connection, if any.
func (c *ControlClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pc.drop()
}
