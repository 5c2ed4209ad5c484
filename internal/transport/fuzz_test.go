package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"netmax/internal/codec"
)

// maxFuzzDim bounds the vector a fuzzed pull response may make the harness
// allocate; the wire's own cap (maxVectorDim) would allow 2 GiB.
const maxFuzzDim = 1 << 16

// FuzzWireFrame feeds arbitrary bytes to readFrame and the body parsers,
// the boundary every live pull and monitor call crosses. Nothing may
// panic, and a frame that decodes must re-encode to the bytes it was read
// from. Pull responses are decoded through codec.ByID and DecodeInto, as
// PullClient and the live worker do.
//
//	go test -run '^$' -fuzz FuzzWireFrame -fuzztime 20s ./internal/transport/
func FuzzWireFrame(f *testing.F) {
	vec := []float64{4, -8, 0.5, 1, math.Inf(-1), 0}
	f.Add(frameBytes(msgPull, 0, appendPullReq(nil, 3)))
	for _, c := range []codec.Codec{codec.Raw{}, codec.Float32{}, codec.NewTopK(0.5)} {
		f.Add(frameBytes(msgPullResp, c.ID(), appendPullResp(nil, vec, c)))
	}
	f.Add(frameBytes(msgReport, 0, appendReport(nil, 0, 1, 0.25, 640)))
	f.Add(frameBytes(msgReportAck, 0, nil))
	f.Add(frameBytes(msgPolicy, 0, nil))
	f.Add(frameBytes(msgPolicyResp, 0, appendPolicyResp(nil, [][]float64{{0, 1}, {1, 0}}, 0.4, 2)))
	f.Add(frameBytes(msgPolicyResp, 0, appendPolicyResp(nil, nil, 0, 0)))

	f.Fuzz(func(t *testing.T, raw []byte) {
		kind, codecID, body, err := readFrame(bytes.NewReader(raw), new([]byte))
		if err != nil {
			return
		}
		read := raw[:frameHeaderLen+len(body)]
		if got := frameBytes(kind, codecID, body); !bytes.Equal(got, read) {
			t.Fatalf("frame re-encodes to %x, read from %x", got, read)
		}
		var again []byte
		switch kind {
		case msgPull:
			from, err := parsePullReq(body)
			if err != nil {
				return
			}
			again = appendPullReq(nil, from)
		case msgReport:
			from, to, secs, bytes, err := parseReport(body)
			if err != nil {
				return
			}
			again = appendReport(nil, from, to, secs, bytes)
		case msgPolicyResp:
			p, rho, version, err := parsePolicyResp(body)
			if err != nil {
				return
			}
			again = appendPolicyResp(nil, p, rho, version)
		case msgPullResp:
			again = reencodePullResp(body, codecID)
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
// maxFuzzDim). Top-k re-encodes the decoded values at the payload's own
// indices, since its encoder would choose k afresh.
func reencodePullResp(body []byte, codecID uint8) []byte {
	dim, payload, err := parsePullRespHeader(body)
	if err != nil || dim > maxFuzzDim {
		return nil
	}
	c, err := codec.ByID(codecID)
	if err != nil {
		return nil
	}
	vec := make([]float64, dim)
	if err := c.DecodeInto(payload, vec, nil); err != nil {
		return nil
	}
	if !c.Sparse() {
		return appendPullResp(nil, vec, c)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(dim))
	out = append(out, payload[:4]...)
	for e := 4; e < len(payload); e += 8 {
		i := binary.BigEndian.Uint32(payload[e:])
		out = binary.BigEndian.AppendUint32(out, i)
		out = binary.BigEndian.AppendUint32(out, math.Float32bits(float32(vec[i])))
	}
	return out
}

// sameWords compares two pull response bodies. Raw payloads must match
// bit for bit. Float32 and top-k values pass through float64, which
// quiets a signaling NaN, so their 4-byte words may differ only where
// both words are NaNs.
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
