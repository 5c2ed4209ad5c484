package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"netmax/internal/codec"
)

// maxFuzzDim bounds the vector a fuzzed pull response may make the harness
// allocate. Receive never allocates by the wire's dim: its caller's buffer
// fixes the dimension.
const maxFuzzDim = 1 << 16

// FuzzWireFrame feeds arbitrary bytes to readFrame, the body parsers and a
// worker server's request dispatch, the boundary every live pull, collect
// and push crosses. Nothing may panic, and a frame that decodes must
// re-encode to the bytes it was read from. The server must refuse every
// kind but pull, collect and push, the retired ones included. Pull
// responses are decoded through decodePullResp, as Receive does; its
// every failure must be a protocol error.
//
//	go test -run '^$' -fuzz FuzzWireFrame -fuzztime 20s ./internal/transport/
func FuzzWireFrame(f *testing.F) {
	vec := []float64{4, -8, 0.5, 1, math.Inf(-1), 0}
	f.Add(frameBytes(msgPull, 0, appendPullReq(nil, 3)))
	for _, c := range []codec.Codec{codec.Raw{}, codec.Float32{}} {
		f.Add(frameBytes(msgPullResp, c.ID(), appendPullResp(nil, vec, c)))
	}
	// Codec id 2 is retired: a well-formed body under it must not decode.
	f.Add(frameBytes(msgPullResp, 2, appendPullResp(nil, vec, codec.Float32{})))
	f.Add(frameBytes(msgCollect, 0, nil))
	f.Add(frameBytes(msgCollectResp, 0, appendCollectResp(nil, []LinkTime{{}, {Secs: 0.25, Count: 3}}, 2)))
	f.Add(frameBytes(msgPush, 0, appendPush(nil, &Policy{P: [][]float64{{0, 1}, {1, 0}}, Rho: 0.4, Version: 2})))
	f.Add(frameBytes(msgPushAck, 0, nil))
	// The retired frames, in the layouts they last had, must be refused.
	f.Add(frameBytes(3, 0, binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 1), math.Float64bits(0.25))))
	f.Add(frameBytes(4, 0, binary.BigEndian.AppendUint64(nil, 3)))
	f.Add(frameBytes(5, 0, nil))
	f.Add(frameBytes(6, 0, appendPush(nil, &Policy{P: [][]float64{{0, 1}, {1, 0}}, Rho: 0.4, Version: 2})[:20]))
	// A policy that is not square travels as it is; the worker rejects it.
	f.Add(frameBytes(msgPush, 0, appendPush(nil, &Policy{P: [][]float64{{0, 0.5, 0.5, math.NaN()}}, Rho: 1, Version: 1})))

	srv := &WorkerServer{src: vecSource(vec), times: fixedTimes([]LinkTime{{Secs: 1, Count: 1}}, 1), codec: codec.Float32{}}
	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, codecID, body, err := readFrame(bytes.NewReader(raw), new([]byte))
		if err != nil {
			return
		}
		read := raw[:frameHeaderLen+len(body)]
		if got := frameBytes(kind, codecID, body); !bytes.Equal(got, read) {
			t.Fatalf("frame re-encodes to %x, read from %x", got, read)
		}
		if _, _, _, ok := srv.answer(new(serverConn), kind, body); ok && kind != msgPull && kind != msgCollect && kind != msgPush {
			t.Fatalf("worker server answered a kind %d frame", kind)
		}
		var again []byte
		switch kind {
		case msgPull:
			from, err := parsePullReq(body)
			if err != nil {
				return
			}
			again = appendPullReq(nil, from)
		case msgCollectResp:
			if len(body) < 12 || binary.BigEndian.Uint32(body[8:]) > maxFuzzDim {
				return
			}
			row := make([]LinkTime, binary.BigEndian.Uint32(body[8:]))
			adopted, err := decodeCollectResp(body, row)
			if err != nil {
				if !errors.Is(err, errProtocol) {
					t.Fatalf("collect answer decode failed without errProtocol: %v", err)
				}
				return
			}
			again = appendCollectResp(nil, row, adopted)
		case msgPush:
			p, err := parsePush(body)
			if err != nil {
				return
			}
			again = appendPush(nil, p)
		case msgPullResp:
			again = reencodePullResp(t, body, codecID)
			if again == nil {
				return
			}
			if !sameWords(again, body, codecID) {
				t.Fatalf("pull response (codec %d) re-encodes to %x, read %x", codecID, again, body)
			}
			return
		default:
			return
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("kind %d body re-encodes to %x, read %x", kind, again, body)
		}
	})
}

// frameBytes is one frame as writeFrame puts it on the wire.
func frameBytes(kind, codecID uint8, body []byte) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	if err := writeFrame(w, kind, codecID, body); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// reencodePullResp decodes a pull response body and encodes the vector
// again, or returns nil when the body does not decode (or its dim exceeds
// maxFuzzDim).
func reencodePullResp(t *testing.T, body []byte, codecID uint8) []byte {
	if len(body) < 4 || binary.BigEndian.Uint32(body) > maxFuzzDim {
		return nil
	}
	vec := make([]float64, binary.BigEndian.Uint32(body))
	if _, err := decodePullResp(body, codecID, vec); err != nil {
		if !errors.Is(err, errProtocol) {
			t.Fatalf("pull response decode failed without errProtocol: %v", err)
		}
		return nil
	}
	c, err := codec.ByID(codecID)
	if err != nil {
		t.Fatalf("decodePullResp accepted codec id %d that codec.ByID rejects", codecID)
	}
	return appendPullResp(nil, vec, c)
}

// sameWords compares two pull response bodies. Raw payloads must match
// bit for bit. Float32 values pass through float64, which quiets a
// signaling NaN, so their 4-byte words may differ only where both words
// are NaNs.
func sameWords(a, b []byte, codecID uint8) bool {
	if codecID == codec.IDRaw || len(a) != len(b) || len(a)%4 != 0 {
		return bytes.Equal(a, b)
	}
	for i := 0; i < len(a); i += 4 {
		x, y := binary.BigEndian.Uint32(a[i:]), binary.BigEndian.Uint32(b[i:])
		if x != y && !(isNaN32(x) && isNaN32(y)) {
			return false
		}
	}
	return true
}

func isNaN32(bits uint32) bool {
	v := math.Float32frombits(bits)
	return v != v
}
