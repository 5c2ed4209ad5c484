package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"netmax/internal/codec"
)

// chunkReader returns at most one byte per Read call, forcing readFrame to
// reassemble frames from many short reads — the same situation a large
// vector split across TCP segments produces.
type chunkReader struct{ r io.Reader }

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.r.Read(p)
}

func TestFrameRoundTripAcrossShortReads(t *testing.T) {
	var raw bytes.Buffer
	w := bufio.NewWriter(&raw)
	want := []LinkTime{{Secs: 1.25, Count: 3}, {}, {Secs: 0.5, Count: 9}}
	if err := writeFrame(w, msgCollectResp, 0, appendCollectResp(nil, want, 7)); err != nil {
		t.Fatal(err)
	}
	kind, codecID, got, err := readFrame(chunkReader{&raw}, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if kind != msgCollectResp || codecID != 0 {
		t.Fatalf("kind=%d codec=%d", kind, codecID)
	}
	row := make([]LinkTime, len(want))
	v, err := decodeCollectResp(got, row)
	if err != nil || v != 7 {
		t.Fatalf("collect answer: version %d (%v)", v, err)
	}
	for j := range want {
		if row[j] != want[j] {
			t.Fatalf("collect answer row %v, want %v", row, want)
		}
	}
	// The receiver fixes the group size: an answer for another one is a
	// protocol error.
	if _, err := decodeCollectResp(got, make([]LinkTime, 2)); !errors.Is(err, errProtocol) {
		t.Fatalf("a 3-link answer decoded into 2 links: %v", err)
	}
}

func TestFrameRejectsCorruptHeaders(t *testing.T) {
	// Length below the kind+codec minimum.
	short := []byte{0, 0, 0, 1, 0, 0}
	if _, _, _, err := readFrame(bytes.NewReader(short), new([]byte)); err == nil {
		t.Fatal("accepted undersized frame length")
	}
	// Length far beyond the body cap.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0}
	if _, _, _, err := readFrame(bytes.NewReader(huge), new([]byte)); err == nil {
		t.Fatal("accepted oversized frame length")
	}
	// Truncated body.
	trunc := []byte{0, 0, 0, 10, msgPull, 0, 1, 2}
	if _, _, _, err := readFrame(bytes.NewReader(trunc), new([]byte)); err == nil {
		t.Fatal("accepted truncated frame")
	}
}

// TestFrameHostileLengthAllocatesLittle pins that readFrame allocates in
// step with the bytes that arrive, not with the length a header claims: a
// header announcing a 1 GiB body followed by ten bytes must fail without
// allocating anything near 1 GiB.
func TestFrameHostileLengthAllocatesLittle(t *testing.T) {
	raw := append([]byte{0x40, 0, 0, 0, msgPullResp, 0}, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := readFrame(bytes.NewReader(raw), new([]byte))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a truncated 1 GiB frame")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 16-byte stream allocated %d bytes", grew)
	}
}

// TestTCPLargeVectorPull moves a multi-megabyte model through the wire
// protocol, guaranteeing the frame spans many TCP segments and loopback
// socket buffers.
func TestTCPLargeVectorPull(t *testing.T) {
	const dim = 400_000 // 3.2 MB raw payload
	rng := rand.New(rand.NewSource(11))
	vec := make([]float64, dim)
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	srv := serveWorker(listenLoopback(t), vecSource(vec), nil, codec.Raw{}, nil)
	defer srv.Close()
	peer := &PullClient{Addr: srv.Addr()}
	defer peer.Close()
	got, wire, err := pull(peer, dim)
	if err != nil {
		t.Fatal(err)
	}
	if wire != 8*dim {
		t.Fatalf("wire bytes = %d, want %d", wire, 8*dim)
	}
	for i := range vec {
		if got[i] != vec[i] {
			t.Fatalf("coord %d: %v != %v", i, got[i], vec[i])
		}
	}
}

// TestTCPCodecNegotiation checks that the codec id in the response frame is
// authoritative: identically configured clients decode with whatever codec
// the server they pull from was built with.
func TestTCPCodecNegotiation(t *testing.T) {
	vec := []float64{4, -8, 0.1, 1}
	for _, c := range []codec.Codec{codec.Raw{}, codec.Float32{}} {
		srv := serveWorker(listenLoopback(t), vecSource(vec), nil, c, nil)
		defer srv.Close()
		peer := &PullClient{Addr: srv.Addr()}
		defer peer.Close()
		got, wire, err := pull(peer, len(vec))
		if err != nil || wire != c.WireBytes(len(vec)) {
			t.Fatalf("%s pull: %v wire=%d", c.Name(), err, wire)
		}
		want := make([]float64, len(vec))
		if err := c.DecodeInto(c.AppendEncode(nil, vec), want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s pull decoded %v, want %v", c.Name(), got, want)
			}
		}
	}
}

// serveFrame answers every pull on a loopback listener with one fixed
// response frame, standing in for a peer that speaks the protocol wrongly.
func serveFrame(t *testing.T, codecID uint8, body []byte) string {
	t.Helper()
	ln := listenLoopback(t)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				var buf []byte
				for {
					if _, _, _, err := readFrame(r, &buf); err != nil {
						return
					}
					if err := writeFrame(w, msgPullResp, codecID, body); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPullRejectsMalformedResponse checks that a response the client
// cannot decode is a protocol error, never ErrPeerDown: the peer answered,
// so masking it would hide version skew or a framing bug. Codec id 2
// belonged to the retired top-k codec and must stay unknown.
func TestPullRejectsMalformedResponse(t *testing.T) {
	vec := []float64{4, -8, 0.5, 1}
	for _, c := range []struct {
		name    string
		codecID uint8
		body    []byte
		dim     int
	}{
		{"retired codec id 2", 2, appendPullResp(nil, vec, codec.Float32{}), 4},
		{"dim mismatch", codec.IDRaw, appendPullResp(nil, vec, codec.Raw{}), 3},
		{"short payload", codec.IDRaw, appendPullResp(nil, vec, codec.Float32{}), 4},
		{"no dim header", codec.IDRaw, []byte{0, 0}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := &PullClient{Addr: serveFrame(t, c.codecID, c.body), Timeout: time.Second}
			defer peer.Close()
			_, _, err := pull(peer, c.dim)
			if !errors.Is(err, errProtocol) || errors.Is(err, ErrPeerDown) {
				t.Fatalf("err = %v, want a protocol error that is not ErrPeerDown", err)
			}
		})
	}
}

// TestPullRejectsNonFinite checks that a served NaN or ±Inf coordinate
// fails the pull with ErrNonFinite under both codecs, without classifying
// the healthy peer as down.
func TestPullRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []codec.Codec{codec.Raw{}, codec.Float32{}} {
			srv := serveWorker(listenLoopback(t), vecSource([]float64{1, bad}), nil, c, nil)
			peer := &PullClient{Addr: srv.Addr()}
			_, _, err := pull(peer, 2)
			if !errors.Is(err, ErrNonFinite) || errors.Is(err, ErrPeerDown) {
				t.Errorf("%s serving [1, %v]: err = %v, want ErrNonFinite", c.Name(), bad, err)
			}
			peer.Close()
			srv.Close()
		}
	}
}

// waitForGoroutines polls until the live goroutine count drops back to the
// baseline (transport teardown is asynchronous only up to scheduler delay).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPHubCloseLeaksNoGoroutines is the shutdown gate, for the TCP and
// the in-process hub: after heavy use of persistent connections and one
// hung pull, Close must return promptly, unblock every accept loop,
// connection handler and injected-latency wait, and leave no transport
// goroutines behind.
func TestTCPHubCloseLeaksNoGoroutines(t *testing.T) {
	// A hung peer: worker 2's server holds pulls by worker 0 for an hour,
	// far past the deadline.
	hang := func(i, j int) time.Duration {
		if i == 0 && j == 2 {
			return time.Hour
		}
		return 0
	}
	for _, c := range []struct {
		name string
		open func() (*Hub, error)
	}{
		{"tcp", func() (*Hub, error) { return &Hub{listen: listenTCP, dial: dialTCP, latency: hang}, nil }},
		{"local", func() (*Hub, error) { return NewLocalHub(hang), nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			hub, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			serve(t, hub, Group{
				Sources: fixed([]float64{0, 1}, []float64{1, 2}, []float64{2, 3}),
				Times:   []TimeSource{fixedTimes(make([]LinkTime, 3), 0)},
				Codec:   codec.Float32{},
				Timeout: 500 * time.Millisecond,
			})
			for from := 0; from < 3; from++ {
				for to := 0; to < 3; to++ {
					if from == to || from == 0 && to == 2 {
						continue
					}
					if _, _, err := pull(hub.Peer(from, to), 2); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := hub.Control(0).Collect(make([]LinkTime, 3)); err != nil {
				t.Fatal(err)
			}
			pol := &Policy{P: [][]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}, Rho: 0.3, Version: 1}
			if err := hub.Control(2).Push(pol); err != nil {
				t.Fatalf("push: %v", err)
			}
			if _, _, err := pull(hub.Peer(0, 2), 2); !errors.Is(err, ErrPeerDown) {
				t.Fatalf("hung pull = %v, want ErrPeerDown", err)
			}
			start := time.Now()
			if err := hub.Close(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("Close took %v with a hung pull outstanding", d)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestTCPServerCloseUnblocksIdleConnection pins the listener-shutdown fix:
// a handler blocked reading an idle persistent connection must be torn down
// by Close rather than keeping the server alive.
func TestTCPServerCloseUnblocksIdleConnection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := serveWorker(listenLoopback(t), vecSource([]float64{1}), nil, codec.Raw{}, nil)
	peer := &PullClient{Addr: srv.Addr()}
	defer peer.Close()
	if _, _, err := pull(peer, 1); err != nil {
		t.Fatal(err)
	}
	// The connection now sits idle; the server handler is blocked in a
	// frame read. Close must return promptly anyway.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle persistent connection")
	}
	peer.Close()
	waitForGoroutines(t, baseline)
}

func TestPullRespHeaderRejectsOversizedDim(t *testing.T) {
	// The caller's buffer fixes the dimension, so a corrupt header claiming
	// a huge dim is rejected before anything is decoded or allocated.
	body := make([]byte, 4+8)
	body[0], body[1], body[2], body[3] = 0xff, 0xff, 0xff, 0xff
	if _, err := decodePullResp(body, codec.IDRaw, make([]float64, 1)); err == nil {
		t.Fatal("accepted a dim the caller did not ask for")
	}
	ok := appendPullResp(nil, []float64{1, 2}, codec.Raw{})
	dst := make([]float64, 2)
	if payload, err := decodePullResp(ok, codec.IDRaw, dst); err != nil || len(payload) != 16 || dst[1] != 2 {
		t.Fatalf("round trip: dst=%v payload=%d err=%v", dst, len(payload), err)
	}
}

func TestPushRejectsOversizedPolicy(t *testing.T) {
	// A row or column count near 2^32 overflows the naive expected-length
	// arithmetic; the parser must reject it before allocating.
	body := appendPush(nil, &Policy{P: [][]float64{{1}}, Rho: 0.5, Version: 1})
	for _, off := range []int{16, 20} {
		bad := slices.Clone(body)
		bad[off] = 0x80
		if _, err := parsePush(bad); err == nil {
			t.Fatalf("accepted an absurd policy size at offset %d", off)
		}
	}
	if p, err := parsePush(body); err != nil || p.Version != 1 || p.P[0][0] != 1 {
		t.Fatalf("round trip: %+v (%v)", p, err)
	}
}
