package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"netmax/internal/codec"
)

// TestTCPPeerDeadlineOnHungServer is the regression test for the
// blocked-forever bug: a peer that accepts connections but never answers
// (hung, not closed) must fail the pull with ErrPeerDown within the
// configured deadline instead of blocking the worker indefinitely.
func TestTCPPeerDeadlineOnHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Accept and go silent: read the request, answer nothing.
			defer conn.Close()
		}
	}()
	p := &PullClient{From: 0, Addr: ln.Addr().String(), Timeout: 300 * time.Millisecond}
	start := time.Now()
	_, err = pullModel(p, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("pull from hung server succeeded")
	}
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("error not classified as ErrPeerDown: %v", err)
	}
	// A deadline expiry must NOT be retried (the peer is hung, not
	// restarted): the total cost is one deadline, not two. The bound sits
	// between 1x and 2x the deadline with slack for scheduling noise.
	if elapsed >= 550*time.Millisecond {
		t.Fatalf("pull blocked %v — a hung peer must cost one 300ms deadline, not two", elapsed)
	}
}

// TestTCPPeerDownClassified verifies that a dead endpoint (nothing
// listening) maps to ErrPeerDown.
func TestTCPPeerDownClassified(t *testing.T) {
	p := &PullClient{From: 0, Addr: "127.0.0.1:1", Timeout: 200 * time.Millisecond}
	if _, err := pullModel(p, nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("dead endpoint error = %v, want ErrPeerDown", err)
	}
}

// TestTCPWorkerServerSetDown verifies crash injection and recovery on the
// server side: pulls fail fast while down, succeed again after recovery.
func TestTCPWorkerServerSetDown(t *testing.T) {
	srv := serveWorker(listenLoopback(t), vecSource([]float64{1, 2}), nil, codec.Raw{}, nil)
	defer srv.Close()
	p := &PullClient{From: 0, Addr: srv.Addr(), Timeout: time.Second}
	vec := make([]float64, 2)
	if _, err := pullModel(p, vec); err != nil {
		t.Fatalf("pull before crash: %v", err)
	}
	srv.SetDown(true)
	if _, err := pullModel(p, vec); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("pull from down server = %v, want ErrPeerDown", err)
	}
	srv.SetDown(false)
	vec[1] = 0
	if _, err := pullModel(p, vec); err != nil || vec[1] != 2 {
		t.Fatalf("recovered pull decoded %v (%v)", vec, err)
	}
}

// TestTCPHubWorkerDownAndTimeouts drives the same scenario through the hub
// surface used by the live runtime.
func TestTCPHubWorkerDownAndTimeouts(t *testing.T) {
	hub, err := NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{1}, []float64{2}), Timeout: 500 * time.Millisecond})
	if _, err := pullModel(hub.Peer(0, 1), make([]float64, 1)); err != nil {
		t.Fatalf("pull before crash: %v", err)
	}
	hub.SetWorkerDown(1, true)
	if _, err := pullModel(hub.Peer(0, 1), make([]float64, 1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("pull from down worker = %v, want ErrPeerDown", err)
	}
	hub.SetWorkerDown(1, false)
	if _, err := pullModel(hub.Peer(0, 1), make([]float64, 1)); err != nil {
		t.Fatalf("pull after recovery: %v", err)
	}
	hub.SetWorkerDown(7, true) // unknown id: no-op, no panic
}

// TestLocalNetWorkerDownAndHang verifies crash and hang injection on the
// local hub the live tests run on.
func TestLocalNetWorkerDownAndHang(t *testing.T) {
	// Worker 2 holds pulls by worker 0 for an hour: a hung peer.
	hub := NewLocalHub(func(i, j int) time.Duration {
		if i == 0 && j == 2 {
			return time.Hour
		}
		return 0
	})
	defer hub.Close()
	serve(t, hub, Group{Sources: fixed([]float64{0}, []float64{1}, []float64{2}), Timeout: 200 * time.Millisecond})
	hub.SetWorkerDown(1, true)
	if _, err := pullModel(hub.Peer(0, 1), make([]float64, 1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("pull from down worker = %v, want ErrPeerDown", err)
	}
	hub.SetWorkerDown(1, false)
	if _, err := pullModel(hub.Peer(0, 1), make([]float64, 1)); err != nil {
		t.Fatalf("pull after recovery: %v", err)
	}
	// Hung peer: latency beyond the deadline fails after the deadline.
	start := time.Now()
	_, err := pullModel(hub.Peer(0, 2), make([]float64, 1))
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("hung pull = %v, want ErrPeerDown", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung pull blocked %v despite 200ms deadline", elapsed)
	}
	// Workers outside the group classify as down too.
	if _, err := pullModel(hub.Peer(0, 9), make([]float64, 1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("unknown peer = %v, want ErrPeerDown", err)
	}
}

// The split-pull tests run on both hubs a live group builds, which share
// one carrier, loopback TCP: a live worker sends its pull request before
// its gradient step and reads the answer after it. Case "pipe" is
// NewLocalHub, the hub of live.transport "local" (its carrier was an
// in-memory pipe before it moved to TCP, and the case keeps its name);
// case "tcp" is NewTCPHub, the hub of "tcp", given the test's latency.
var carriers = []string{"pipe", "tcp"}

// openRecordingHub opens the carrier's hub with the given pull latency,
// whose servers record their connections as NewRecordingLocalHub's do.
func openRecordingHub(t *testing.T, carrier string, latency func(i, j int) time.Duration) (*Hub, func(kind uint8) int) {
	if carrier == "pipe" {
		return NewRecordingLocalHub(latency)
	}
	hub, err := NewTCPHub()
	if err != nil {
		t.Fatal(err)
	}
	hub.latency = latency
	return hub, recordFrames(hub)
}

// TestSplitPullResendsAfterDrop drops the connection between Request and
// Receive, after the server has read the request and before it answers:
// Receive must redial, re-send the request once and return the model.
func TestSplitPullResendsAfterDrop(t *testing.T) {
	for _, carrier := range carriers {
		t.Run(carrier, func(t *testing.T) {
			hub, frames := openRecordingHub(t, carrier, func(i, j int) time.Duration { return 50 * time.Millisecond })
			defer hub.Close()
			serve(t, hub, Group{Sources: fixed([]float64{0, 0}, []float64{1, 2}), Timeout: 2 * time.Second})
			peer := hub.Peer(0, 1)
			peer.Request()
			for frames(msgPull) == 0 {
				time.Sleep(time.Millisecond)
			}
			hub.SetWorkerDown(1, true) // tears the connection down
			hub.SetWorkerDown(1, false)
			dst := make([]float64, 2)
			if _, err := peer.Receive(dst); err != nil || dst[1] != 2 {
				t.Fatalf("pull across a dropped connection decoded %v (%v)", dst, err)
			}
			if n := frames(msgPull); n != 2 {
				t.Fatalf("servers read %d pull requests, want the request and one re-send", n)
			}
		})
	}
}

// TestSplitPullPeerDown checks that a pull at a down peer, or at an
// address that cannot be dialed, fails with ErrPeerDown from Receive.
func TestSplitPullPeerDown(t *testing.T) {
	for _, carrier := range carriers {
		t.Run(carrier, func(t *testing.T) {
			hub, _ := openRecordingHub(t, carrier, nil)
			defer hub.Close()
			serve(t, hub, Group{Sources: fixed([]float64{0}, []float64{1}), Timeout: time.Second})
			dst := make([]float64, 1)
			if _, err := pullModel(hub.Peer(0, 1), dst); err != nil {
				t.Fatalf("pull before the crash: %v", err)
			}
			hub.SetWorkerDown(1, true)
			for _, peer := range []*PullClient{hub.Peer(0, 1), hub.Peer(0, 9)} {
				peer.Request()
				if _, err := peer.Receive(dst); !errors.Is(err, ErrPeerDown) {
					t.Fatalf("pull at %q = %v, want ErrPeerDown", peer.Addr, err)
				}
			}
		})
	}
}

// TestSplitPullHungPeerCostsOneDeadline pulls from a peer whose latency
// exceeds the deadline, with 300 ms of work between Request and Receive.
// The deadline starts at Request and is never retried, so the pull fails
// after one 400 ms deadline: not 700 ms (a deadline started at Receive)
// and not two deadlines. Once the peer answers again, the next pull on
// the same client succeeds: the expired deadline went with the dropped
// connection.
func TestSplitPullHungPeerCostsOneDeadline(t *testing.T) {
	const timeout = 400 * time.Millisecond
	for _, carrier := range carriers {
		t.Run(carrier, func(t *testing.T) {
			var hung atomic.Bool
			hung.Store(true)
			hub, _ := openRecordingHub(t, carrier, func(i, j int) time.Duration {
				if hung.Load() {
					return time.Hour
				}
				return 0
			})
			defer hub.Close()
			serve(t, hub, Group{Sources: fixed([]float64{0}, []float64{1}), Timeout: timeout})
			peer := hub.Peer(0, 1)
			start := time.Now()
			peer.Request()
			time.Sleep(300 * time.Millisecond)
			_, err := peer.Receive(make([]float64, 1))
			elapsed := time.Since(start)
			if !errors.Is(err, ErrPeerDown) {
				t.Fatalf("hung pull = %v, want ErrPeerDown", err)
			}
			if elapsed < timeout || elapsed >= 650*time.Millisecond {
				t.Fatalf("hung pull took %v, want one %v deadline from Request", elapsed, timeout)
			}
			hung.Store(false)
			dst := make([]float64, 1)
			if _, err := pullModel(peer, dst); err != nil || dst[0] != 1 {
				t.Fatalf("pull after the peer recovered decoded %v (%v)", dst, err)
			}
		})
	}
}
