package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"netmax/internal/codec"
)

// The binary wire protocol. Every message is one length-prefixed frame:
//
//	offset size  field
//	0      4     uint32 N — byte length of the remainder (kind + codec + body)
//	4      1     message kind (msg* below)
//	5      1     codec id (codec.ID* — meaningful for pullResp, 0 elsewhere)
//	6      N-2   body
//
// All integers are big-endian. Frames flow over persistent connections:
// a client dials once, then exchanges request/response frames until it (or
// the server) closes. Body encodings per kind:
//
//	msgPull        uint32 from
//	msgPullResp    uint32 dim, then the codec payload for a dim-length vector
//	msgReport      uint32 from, uint32 to, float64 secs
//	msgReportAck   uint64 version (policies the monitor has published)
//	msgPolicy      empty
//	msgPolicyResp  uint64 version, float64 rho, uint32 m, then m·m float64
//	               (row-major P; m = 0 means no policy published yet)
const (
	msgPull uint8 = iota + 1
	msgPullResp
	msgReport
	msgReportAck
	msgPolicy
	msgPolicyResp
)

// maxFrameBody caps a frame body; anything larger indicates a corrupt or
// hostile stream (a VGG19-sized raw pull is ~1.1 GB of float64, so the cap
// sits above every model in the zoo).
const maxFrameBody = 2 << 30

// frameHeaderLen is the fixed prefix: length, kind, codec id.
const frameHeaderLen = 6

// writeFrame emits one frame and flushes the writer. The header is built
// in the writer's free buffer space: a local array handed to Write would
// escape to the heap, one allocation per frame.
func writeFrame(w *bufio.Writer, kind, codecID uint8, body []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(body)+2))
	if _, err := w.Write(append(hdr, kind, codecID)); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one complete frame, growing and reusing *buf for the
// header and then the body (the returned body aliases *buf and is valid
// until the next call). A local header array handed to the reader would
// escape to the heap, one allocation per frame.
func readFrame(r io.Reader, buf *[]byte) (kind, codecID uint8, body []byte, err error) {
	if cap(*buf) < frameHeaderLen {
		*buf = make([]byte, frameHeaderLen)
	}
	hdr := (*buf)[:frameHeaderLen]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	kind, codecID = hdr[4], hdr[5]
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 2 {
		return 0, 0, nil, fmt.Errorf("transport: frame length %d below header size", n)
	}
	if n-2 > maxFrameBody {
		return 0, 0, nil, fmt.Errorf("transport: frame body %d bytes exceeds cap", n-2)
	}
	need := int(n - 2)
	if cap(*buf) < need {
		// Grow in step with the bytes that arrive: a corrupt or hostile
		// length must not allocate gigabytes before its body shows up.
		grown := bytes.NewBuffer((*buf)[:0])
		if _, err = io.CopyN(grown, r, int64(need)); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
		*buf = grown.Bytes()
		return kind, codecID, *buf, nil
	}
	body = (*buf)[:need]
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, 0, nil, err
	}
	return kind, codecID, body, nil
}

// --- body encodings ---

func appendPullReq(dst []byte, from int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(from))
}

func parsePullReq(body []byte) (from int, err error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("transport: pull request body %d bytes, want 4", len(body))
	}
	return int(binary.BigEndian.Uint32(body)), nil
}

func appendReport(dst []byte, from, to int, secs float64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(from))
	dst = binary.BigEndian.AppendUint32(dst, uint32(to))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(secs))
}

func parseReport(body []byte) (from, to int, secs float64, err error) {
	if len(body) != 16 {
		return 0, 0, 0, fmt.Errorf("transport: report body %d bytes, want 16", len(body))
	}
	from = int(binary.BigEndian.Uint32(body[0:]))
	to = int(binary.BigEndian.Uint32(body[4:]))
	secs = math.Float64frombits(binary.BigEndian.Uint64(body[8:]))
	return from, to, secs, nil
}

func appendReportAck(dst []byte, version int) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(version))
}

func parseReportAck(body []byte) (version int, err error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("transport: report ack body %d bytes, want 8", len(body))
	}
	return int(binary.BigEndian.Uint64(body)), nil
}

func appendPolicyResp(dst []byte, p [][]float64, rho float64, version int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(version))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(rho))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
	for _, row := range p {
		for _, v := range row {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

func parsePolicyResp(body []byte) (p [][]float64, rho float64, version int, err error) {
	if len(body) < 20 {
		return nil, 0, 0, fmt.Errorf("transport: policy body %d bytes, want >= 20", len(body))
	}
	version = int(binary.BigEndian.Uint64(body[0:]))
	rho = math.Float64frombits(binary.BigEndian.Uint64(body[8:]))
	m := int(binary.BigEndian.Uint32(body[16:]))
	// Bound m before squaring: a wire-supplied m near 2^32 overflows the
	// expected-length arithmetic and would drive an unbounded allocation.
	if maxM := 1 << 15; m > maxM {
		return nil, 0, 0, fmt.Errorf("transport: policy worker count %d exceeds cap %d", m, maxM)
	}
	if want := 20 + 8*m*m; len(body) != want {
		return nil, 0, 0, fmt.Errorf("transport: policy body %d bytes, want %d for m=%d", len(body), want, m)
	}
	if m == 0 {
		return nil, rho, version, nil
	}
	p = make([][]float64, m)
	off := 20
	for i := range p {
		p[i] = make([]float64, m)
		for j := range p[i] {
			p[i][j] = math.Float64frombits(binary.BigEndian.Uint64(body[off:]))
			off += 8
		}
	}
	return p, rho, version, nil
}

// appendPullResp frames a model vector: dim header plus the codec payload
// (whose length, len(result)-len(dst)-4, is the bytes-on-wire figure —
// clients measure it on receive).
func appendPullResp(dst []byte, vec []float64, c codec.Codec) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(vec)))
	return c.AppendEncode(dst, vec)
}

// decodePullResp decodes a pull response body carrying codec codecID into
// dst, whose length is the dimension the caller expects, and returns the
// codec payload. Every failure wraps errProtocol.
func decodePullResp(body []byte, codecID uint8, dst []float64) (payload []byte, err error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: pull response body %d bytes, want >= 4", errProtocol, len(body))
	}
	if dim := binary.BigEndian.Uint32(body); uint64(dim) != uint64(len(dst)) {
		return nil, fmt.Errorf("%w: pulled model has dim %d, want %d", errProtocol, dim, len(dst))
	}
	c, err := codec.ByID(codecID)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errProtocol, err)
	}
	payload = body[4:]
	if err := c.DecodeInto(payload, dst); err != nil {
		return nil, fmt.Errorf("%w: %w", errProtocol, err)
	}
	return payload, nil
}
