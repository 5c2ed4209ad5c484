package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"netmax/internal/codec"
)

// The TestLocalNet tests drive the in-process hub: the same servers,
// clients and frames as TCP, over in-memory pipes.

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

func TestLocalNetLatencyInjected(t *testing.T) {
	hub := NewLocalHub(func(i, j int) time.Duration { return 30 * time.Millisecond })
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{0}, []float64{1})})
	start := time.Now()
	if _, _, err := pull(hub.Peer(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency not injected: %v", d)
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

func TestLocalNetPolicyVersioning(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed(nil, nil)})
	mc := hub.Monitor(0)
	_, _, v0, _ := mc.FetchPolicy()
	hub.SetPolicy([][]float64{{0, 1}, {1, 0}}, 0.4)
	p, rho, v1, err := mc.FetchPolicy()
	if err != nil || v1 != v0+1 || rho != 0.4 || p[0][1] != 1 {
		t.Fatalf("policy fetch wrong: %v %v %v %v", p, rho, v1, err)
	}
	if v := hub.PolicyVersion(); v != v1 {
		t.Fatalf("PolicyVersion = %d, the wire says %d", v, v1)
	}
}

func TestLocalNetReports(t *testing.T) {
	hub := NewLocalHub(nil)
	defer hub.Close()
	var mu sync.Mutex
	var got []float64
	serve(t, hub, Group{Sources: fixed(nil, nil), Report: func(from, to int, secs float64) {
		mu.Lock()
		got = append(got, secs)
		mu.Unlock()
	}})
	if err := hub.Monitor(1).ReportTime(1, 0, 2.5); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != 2.5 {
		t.Fatalf("reports = %v", got)
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
	srv := serveWorker(listenLoopback(t), func() []float64 { return []float64{4, 5} }, codec.Raw{}, nil)
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
	srv := serveWorker(listenLoopback(t), func() []float64 { return []float64{7} }, codec.Raw{}, nil)
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

func TestTCPMonitorRoundTrip(t *testing.T) {
	var mu sync.Mutex
	reports := 0
	var secs float64
	srv := new(MonitorServer)
	srv.serve(listenLoopback(t), func(from, to int, s float64) {
		mu.Lock()
		reports++
		secs = s
		mu.Unlock()
	})
	defer srv.Close()
	client := &MonitorClient{Addr: srv.Addr()}
	defer client.Close()
	if err := client.ReportTime(0, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if reports != 1 || secs != 1.5 {
		t.Fatalf("reports = %d secs %v", reports, secs)
	}
	mu.Unlock()

	srv.SetPolicy([][]float64{{0, 1}, {1, 0}}, 0.7)
	p, rho, v, err := client.FetchPolicy()
	if err != nil || v != 1 || rho != 0.7 || p[1][0] != 1 {
		t.Fatalf("policy = %v %v %v %v", p, rho, v, err)
	}
}

// TestReportAckCarriesPolicyVersion pins the report ack's body: the number
// of policies the monitor has published, which the client records.
func TestReportAckCarriesPolicyVersion(t *testing.T) {
	srv := new(MonitorServer)
	srv.serve(listenLoopback(t), nil)
	defer srv.Close()
	client := &MonitorClient{Addr: srv.Addr()}
	defer client.Close()
	for want := 0; want <= 2; want++ {
		if want > 0 {
			srv.SetPolicy([][]float64{{0, 1}, {1, 0}}, 0.5)
		}
		if err := client.ReportTime(0, 1, 0.5); err != nil {
			t.Fatal(err)
		}
		if got := client.Announced(); got != want {
			t.Fatalf("ack announced version %d after %d policies", got, want)
		}
	}
}

// TestTCPReportResentAfterLostAck pins the report's retry rule: a report
// only overwrites its link's latest time, so one whose ack is lost with
// the connection is redialed and re-sent once, and the monitor's sink sees
// it again. The re-sent report's ack still announces the current policy
// version.
func TestTCPReportResentAfterLostAck(t *testing.T) {
	var mu sync.Mutex
	var got []float64
	srv := new(MonitorServer)
	srv.serve(listenLoopback(t), func(from, to int, secs float64) {
		mu.Lock()
		got = append(got, secs)
		first := len(got) == 1
		mu.Unlock()
		if first {
			srv.grp.dropConns() // the first delivery's ack is lost
		}
	})
	defer srv.Close()
	srv.SetPolicy([][]float64{{0, 1}, {1, 0}}, 0.5)
	client := &MonitorClient{Addr: srv.Addr(), Timeout: 5 * time.Second}
	defer client.Close()
	if err := client.ReportTime(0, 1, 1.5); err != nil {
		t.Fatalf("report after a lost ack: %v", err)
	}
	if v := client.Announced(); v != 1 {
		t.Fatalf("re-sent report's ack announced version %d, want 1", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 1.5 || got[1] != 1.5 {
		t.Fatalf("sink saw %v, want the report delivered twice", got)
	}
}

// TestPolicyFetchedOnlyWhenAnnounced counts the frames a monitor reads
// while a client follows the live worker's rule: fetch the policy only
// when a report ack announced a version newer than the one held. Reports
// with nothing published cost no policy frame; one publication costs
// exactly one.
func TestPolicyFetchedOnlyWhenAnnounced(t *testing.T) {
	ln := &recordingListener{Listener: listenLoopback(t)}
	srv := new(MonitorServer)
	srv.serve(ln, nil)
	defer srv.Close()
	client := &MonitorClient{Addr: srv.Addr()}
	defer client.Close()
	held := 0
	iterate := func(n int) {
		for i := 0; i < n; i++ {
			if client.Announced() > held {
				_, _, v, err := client.FetchPolicy()
				if err != nil {
					t.Fatal(err)
				}
				held = v
			}
			if err := client.ReportTime(0, 1, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	iterate(20)
	if n := ln.frames(msgPolicy); n != 0 {
		t.Fatalf("%d policy frames with nothing published", n)
	}
	if n := ln.frames(msgReport); n != 20 {
		t.Fatalf("monitor read %d report frames, want 20", n)
	}
	srv.SetPolicy([][]float64{{0, 1}, {1, 0}}, 0.5)
	iterate(20)
	if n := ln.frames(msgPolicy); n != 1 || held != 1 {
		t.Fatalf("%d policy frames (version %d held) after one publication, want 1", n, held)
	}
}

// recordingListener records the bytes each accepted connection delivers
// to the server, so a test can count the request frames it read.
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
	rc := &recordingConn{Conn: c, l: l, buf: new(bytes.Buffer)}
	l.streams = append(l.streams, rc.buf)
	return rc, nil
}

// frames counts the complete frames of the given kind read so far.
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
	l   *recordingListener
	buf *bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.buf.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

func TestTCPMonitorEmptyPolicy(t *testing.T) {
	srv := new(MonitorServer)
	srv.serve(listenLoopback(t), nil)
	defer srv.Close()
	client := &MonitorClient{Addr: srv.Addr()}
	defer client.Close()
	p, _, v, err := client.FetchPolicy()
	if err != nil || p != nil || v != 0 {
		t.Fatalf("expected empty policy, got %v v=%d err=%v", p, v, err)
	}
}

func TestTCPPeerDialError(t *testing.T) {
	peer := &PullClient{Addr: "127.0.0.1:1"} // reserved port, nothing listening
	if _, _, err := pull(peer, 1); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestTCPServerCloseIdempotentAccept(t *testing.T) {
	srv := serveWorker(listenLoopback(t), func() []float64 { return nil }, codec.Raw{}, nil)
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
	srv := serveWorker(listenLoopback(t), func() []float64 { return []float64{1} }, codec.Raw{}, nil)
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
	srv2 := serveWorker(ln, func() []float64 { return []float64{2} }, codec.Raw{}, nil)
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
	wire, err := p.PullModel(vec)
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
		srcs[i] = func() []float64 { return v }
	}
	return srcs
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
