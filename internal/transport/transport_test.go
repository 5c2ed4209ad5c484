package transport

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netmax/internal/codec"
)

// The TestLocalNet tests drive NewLocalHub: loopback TCP with an optional
// injected pull latency.

func TestLocalNetPull(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{0}, []float64{1, 2, 3})})
	got, wire, err := pull(hub.Peer(0, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("pulled %v", got)
	}
	if wire != 24 { // raw codec: 3 coords x 8 bytes
		t.Fatalf("wire bytes = %d, want 24", wire)
	}
}

func TestLocalNetPullCopies(t *testing.T) {
	backing := []float64{1, 2}
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed(backing, backing)})
	got, _, _ := pull(hub.Peer(1, 0), 2)
	got[0] = 99
	if backing[0] != 1 {
		t.Fatal("pull aliases source storage")
	}
}

func TestLocalNetUnknownPeer(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{1}, []float64{2})})
	if _, _, err := pull(hub.Peer(0, 5), 1); err == nil {
		t.Fatal("expected error for unknown peer")
	}
}

// TestLocalNetLatencyInjected pulls three times over a local hub with a
// 20 ms latency: each pull, the first (which dials) and the warm ones,
// takes at least the latency, and the peer is a loopback TCP address.
func TestLocalNetLatencyInjected(t *testing.T) {
	const latency = 20 * time.Millisecond
	hub := NewLocalHub(func(i, j int) time.Duration { return latency })
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{0}, []float64{1})})
	peer := hub.Peer(0, 1)
	if addr, err := netip.ParseAddrPort(peer.Addr); err != nil || !addr.Addr().IsLoopback() {
		t.Fatalf("peer address %q (%v), want a loopback TCP address", peer.Addr, err)
	}
	for k := 0; k < 3; k++ {
		start := time.Now()
		if _, _, err := pull(peer, 1); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < latency {
			t.Fatalf("pull %d took %v, want at least the %v latency", k, d, latency)
		}
	}
}

func TestLocalNetCodecApplied(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed(nil, []float64{4, -8, 0.1, 1}), Codec: codec.Float32{}})
	got, wire, err := pull(hub.Peer(0, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, -8, float64(float32(0.1)), 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if wire != 4*4 { // float32 codec: 4 coords x 4 bytes
		t.Fatalf("wire bytes = %d", wire)
	}
}

// TestLocalNetPolicyVersioning pins the worker's policy slot: a push
// fills it over the local hub, and a push of an older version leaves
// the newer one in place.
func TestLocalNetPolicyVersioning(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed(nil, nil)})
	if hub.Pushed(1) != nil {
		t.Fatal("a fresh hub has a pushed policy")
	}
	first := &Policy{P: [][]float64{{1, 0}, {0, 1}}, Rho: 0.2, Version: 1}
	second := &Policy{P: [][]float64{{0, 1}, {1, 0}}, Rho: 0.4, Version: 2}
	ctl := hub.Control(1)
	if err := ctl.Push(second); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Push(first); err != nil {
		t.Fatal(err)
	}
	got := hub.Pushed(1)
	if got == nil || got.Version != 2 || got.Rho != 0.4 || got.P[1][0] != 1 {
		t.Fatalf("worker 1's slot holds %+v, want version 2", got)
	}
	if hub.Pushed(0) != nil {
		t.Fatal("a push to worker 1 filled worker 0's slot")
	}
}

// TestLocalNetReports checks that a collect over the local hub returns
// what the worker's time source reports: its link times with their counts,
// and its adopted policy version.
func TestLocalNetReports(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	want := []LinkTime{{Secs: 2.5, Count: 3}, {}, {Secs: 0.75, Count: 1}}
	serve(t, hub, Group{Sources: fixed(nil, nil, nil), Times: []TimeSource{nil, fixedTimes(want, 4), nil}})
	row := make([]LinkTime, 3)
	v, err := hub.Control(1).Collect(row)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 || !slices.Equal(row, want) {
		t.Fatalf("collect = %v (version %d), want %v (version 4)", row, v, want)
	}
	// A worker without a time source answers an empty row, which a
	// three-worker collect rejects as a protocol error.
	if _, err := hub.Control(0).Collect(row); !errors.Is(err, errProtocol) || errors.Is(err, ErrPeerDown) {
		t.Fatalf("collect of an empty row = %v, want a protocol error", err)
	}
}

// TestLocalNetServeOnce pins that a hub's group is fixed: a second Serve
// fails and leaves the first group in place.
func TestLocalNetServeOnce(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{1}, []float64{2})})
	if err := hub.Serve(Group{Sources: fixed([]float64{3}, []float64{4})}); err == nil {
		t.Fatal("second Serve succeeded")
	}
	if got, _, err := pull(hub.Peer(0, 1), 1); err != nil || got[0] != 2 {
		t.Fatalf("pull after a second Serve: %v (%v)", got, err)
	}
}

func TestTCPWorkerPull(t *testing.T) {
	srv := serveWorker(listenLoopback(t), vecSource([]float64{4, 5}), nil, codec.Raw{}, nil)
	defer srv.Close()
	peer := &PullClient{From: 0, Addr: srv.Addr()}
	defer peer.Close()
	got, wire, err := pull(peer, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("pulled %v", got)
	}
	if wire != 16 {
		t.Fatalf("wire bytes = %d, want 16", wire)
	}
}

func TestTCPWorkerConcurrentPulls(t *testing.T) {
	srv := serveWorker(listenLoopback(t), vecSource([]float64{7}), nil, codec.Raw{}, nil)
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := &PullClient{Addr: srv.Addr()}
			defer peer.Close()
			// Several pulls per peer exercise connection reuse under load.
			for n := 0; n < 4; n++ {
				if _, _, err := pull(peer, 1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPMonitorRoundTrip runs the monitor's two exchanges over TCP: a
// collect returns the worker's row and its adopted version, and a push fills
// the worker's policy slot.
func TestTCPMonitorRoundTrip(t *testing.T) {
	times := fixedTimes([]LinkTime{{}, {Secs: 1.5, Count: 1}}, 2)
	srv := serveWorker(listenLoopback(t), vecSource(nil), times, codec.Raw{}, nil)
	defer srv.Close()
	client := &ControlClient{Addr: srv.Addr()}
	defer client.Close()
	got := make([]LinkTime, 2)
	v, err := client.Collect(got)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || got[0] != (LinkTime{}) || got[1] != (LinkTime{Secs: 1.5, Count: 1}) {
		t.Fatalf("collect = %v (version %d), want the row at version 2", got, v)
	}
	if err := client.Push(&Policy{P: [][]float64{{0, 1}, {1, 0}}, Rho: 0.7, Version: 3}); err != nil {
		t.Fatal(err)
	}
	if p := srv.pushed.Load(); p == nil || p.Version != 3 || p.Rho != 0.7 || p.P[1][0] != 1 {
		t.Fatalf("slot = %+v after a push", p)
	}
	// A ragged matrix cannot be encoded: the push fails before any frame.
	if err := client.Push(&Policy{P: [][]float64{{0, 1}, {1}}, Version: 4}); err == nil {
		t.Fatal("pushed a ragged policy")
	}
}

// TestReportAckCarriesPolicyVersion checks how the monitor learns which
// policy a worker runs: the collect answer, which took over from the time
// report's ack, carries the version the worker adopted from its slot. Over
// TCP, each pushed version is adopted the way a live worker does it, and
// the next collect reports that version and the row's counts as they grow.
func TestReportAckCarriesPolicyVersion(t *testing.T) {
	var srv *WorkerServer
	var count uint64
	times := func(dst []LinkTime) ([]LinkTime, int) {
		adopted := 0
		if p := srv.pushed.Load(); p != nil {
			adopted = p.Version
		}
		count++
		return append(dst[:0], LinkTime{}, LinkTime{Secs: 0.5, Count: count}), adopted
	}
	srv = serveWorker(listenLoopback(t), vecSource(nil), times, codec.Raw{}, nil)
	defer srv.Close()
	client := &ControlClient{Addr: srv.Addr()}
	defer client.Close()
	got := make([]LinkTime, 2)
	for want := 0; want <= 2; want++ {
		if want > 0 {
			if err := client.Push(&Policy{P: [][]float64{{0, 1}, {1, 0}}, Rho: 0.5, Version: want}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := client.Collect(got)
		if err != nil {
			t.Fatal(err)
		}
		if v != want || got[1] != (LinkTime{Secs: 0.5, Count: uint64(want + 1)}) {
			t.Fatalf("collect = %v (version %d) after %d pushes, want count %d at version %d", got, v, want, want+1, want)
		}
	}
}

// TestTCPCollectResentAfterLostAnswer pins the collect's retry rule: the
// first answer is lost with its connection, so the client redials and
// re-sends, and the worker answers again with the same counts. The monitor
// ingests a link only when its count grew, so the second delivery adds
// nothing.
func TestTCPCollectResentAfterLostAnswer(t *testing.T) {
	var srv *WorkerServer
	var calls atomic.Int32
	times := func(dst []LinkTime) ([]LinkTime, int) {
		if calls.Add(1) == 1 {
			srv.dropConns() // the first answer is lost
		}
		return append(dst[:0], LinkTime{}, LinkTime{Secs: 0.5, Count: 7}), 2
	}
	srv = serveWorker(listenLoopback(t), vecSource(nil), times, codec.Raw{}, nil)
	defer srv.Close()
	client := &ControlClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	defer client.Close()
	row := make([]LinkTime, 2)
	v, err := client.Collect(row)
	if err != nil {
		t.Fatalf("collect after a lost answer: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("time source called %d times, want 2", n)
	}
	if v != 2 || row[1] != (LinkTime{Secs: 0.5, Count: 7}) {
		t.Fatalf("re-sent collect = %v (version %d)", row, v)
	}
}

// TestLocalNetDownWorkerMissesMonitor checks the monitor's exchanges with a
// crashed worker: a collect and a push both fail with
// ErrPeerDown and leave the slot empty, and after the rejoin the re-sent
// push lands.
func TestLocalNetDownWorkerMissesMonitor(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed(nil, nil), Times: []TimeSource{nil, fixedTimes(make([]LinkTime, 2), 0)}, Timeout: time.Second})
	pol := &Policy{P: [][]float64{{0, 1}, {1, 0}}, Rho: 0.5, Version: 1}
	ctl := hub.Control(1)
	hub.SetWorkerDown(1, true)
	if _, err := ctl.Collect(make([]LinkTime, 2)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("collect from a down worker = %v, want ErrPeerDown", err)
	}
	if err := ctl.Push(pol); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("push to a down worker = %v, want ErrPeerDown", err)
	}
	if p := hub.Pushed(1); p != nil {
		t.Fatalf("a down worker's slot took %+v", p)
	}
	hub.SetWorkerDown(1, false)
	if err := ctl.Push(pol); err != nil {
		t.Fatalf("push after the rejoin: %v", err)
	}
	if p := hub.Pushed(1); p == nil || p.Version != 1 {
		t.Fatalf("slot after the rejoin = %+v, want version 1", p)
	}
}

// TestWarmExchangesAllocateNothing pins a pull and a collect, both sides,
// at zero allocations once warm: the serving connection copies the model
// into a buffer it owns, under the source's lock as a live worker's does,
// and encodes into a reused frame buffer. The split pull runs the puller's
// gradient step between Request and Receive, as a live worker does.
func TestWarmExchangesAllocateNothing(t *testing.T) {
	model := []float64{1, 2, 3, 4}
	var mu sync.Mutex
	copying := func(dst []float64) []float64 {
		if len(dst) != len(model) {
			dst = make([]float64, len(model))
		}
		mu.Lock()
		defer mu.Unlock()
		copy(dst, model)
		return dst
	}
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{
		Sources: []ModelSource{copying, copying},
		Times:   []TimeSource{fixedTimes(make([]LinkTime, 2), 0), fixedTimes(make([]LinkTime, 2), 0)},
		Codec:   codec.Float32{},
	})
	dst := make([]float64, len(model))
	row := make([]LinkTime, 2)
	step := newGradStep()
	for name, exchange := range map[string]func() error{
		"pull":    func() error { _, err := pullModel(hub.Peer(0, 1), dst); return err },
		"collect": func() error { _, err := hub.Control(1).Collect(row); return err },
		"split pull": func() error {
			peer := hub.Peer(0, 1)
			peer.Request()
			step()
			_, err := peer.Receive(dst)
			return err
		},
	} {
		if err := exchange(); err != nil { // warm: dial, grow buffers
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := exchange(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a warm %s allocates %v times", name, n)
		}
	}
}

// recordingListener records the bytes each accepted connection carries in
// both directions, so a test can count the frames a server read and wrote.
type recordingListener struct {
	net.Listener
	mu      sync.Mutex
	streams []*bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rc := &recordingConn{Conn: c, l: l, in: new(bytes.Buffer), out: new(bytes.Buffer)}
	l.streams = append(l.streams, rc.in, rc.out)
	return rc, nil
}

// frames counts the complete frames of the given kind carried so far.
func (l *recordingListener) frames(kind uint8) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	var buf []byte
	for _, s := range l.streams {
		r := bytes.NewReader(s.Bytes())
		for {
			k, _, _, err := readFrame(r, &buf)
			if err != nil {
				break
			}
			if k == kind {
				n++
			}
		}
	}
	return n
}

type recordingConn struct {
	net.Conn
	l       *recordingListener
	in, out *bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.in.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.mu.Lock()
	c.out.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestTCPMonitorEmptyPolicy checks a worker the monitor never pushed to:
// its slot is empty, and with no time source it answers a zero-link collect
// at version 0.
func TestTCPMonitorEmptyPolicy(t *testing.T) {
	srv := serveWorker(listenLoopback(t), vecSource(nil), nil, codec.Raw{}, nil)
	defer srv.Close()
	client := &ControlClient{Addr: srv.Addr()}
	defer client.Close()
	v, err := client.Collect(nil)
	if err != nil || v != 0 || srv.pushed.Load() != nil {
		t.Fatalf("empty worker: version %d, slot %+v, err %v", v, srv.pushed.Load(), err)
	}
}

func TestTCPPeerDialError(t *testing.T) {
	peer := &PullClient{Addr: "127.0.0.1:1"} // reserved port, nothing listening
	if _, _, err := pull(peer, 1); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestTCPServerCloseIdempotentAccept(t *testing.T) {
	srv := serveWorker(listenLoopback(t), vecSource(nil), nil, codec.Raw{}, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// After close, pulls must fail rather than hang.
	peer := &PullClient{Addr: srv.Addr()}
	if _, _, err := pull(peer, 0); err == nil {
		t.Fatal("pull succeeded after close")
	}
}

// TestTCPPeerSurvivesServerRestart exercises the transparent redial: a
// persistent connection dies with its server, and the next pull must
// re-establish against the replacement listener on the same address.
func TestTCPPeerSurvivesServerRestart(t *testing.T) {
	srv := serveWorker(listenLoopback(t), vecSource([]float64{1}), nil, codec.Raw{}, nil)
	addr := srv.Addr()
	peer := &PullClient{Addr: addr}
	defer peer.Close()
	if _, _, err := pull(peer, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := serveWorker(ln, vecSource([]float64{2}), nil, codec.Raw{}, nil)
	defer srv2.Close()
	got, _, err := pull(peer, 1)
	if err != nil {
		t.Fatalf("pull after restart: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("pulled %v from restarted server", got)
	}
}

// pull fetches a dim-length vector into a fresh buffer.
func pull(p *PullClient, dim int) ([]float64, int64, error) {
	vec := make([]float64, dim)
	wire, err := pullModel(p, vec)
	return vec, wire, err
}

// serve serves g on hub, failing the test if any endpoint fails to open.
func serve(t *testing.T, hub *Hub, g Group) {
	t.Helper()
	if err := hub.Serve(g); err != nil {
		t.Fatal(err)
	}
}

// fixed returns one model source per vector, each serving its vector.
func fixed(vecs ...[]float64) []ModelSource {
	srcs := make([]ModelSource, len(vecs))
	for i, v := range vecs {
		srcs[i] = vecSource(v)
	}
	return srcs
}

// vecSource serves a copy of v.
func vecSource(v []float64) ModelSource {
	return func(dst []float64) []float64 { return append(dst[:0], v...) }
}

// fixedTimes answers every collect with row at version adopted.
func fixedTimes(row []LinkTime, adopted int) TimeSource {
	return func(dst []LinkTime) ([]LinkTime, int) { return append(dst[:0], row...), adopted }
}

// listenLoopback listens on an ephemeral loopback TCP port.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
