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
// the server) closes. Every request goes to a worker's server: pulls from
// its peers, collects and pushes from the monitor. Body encodings per kind:
//
//	msgPull        uint32 from
//	msgPullResp    uint32 dim, then the codec payload for a dim-length vector
//	msgCollect     empty
//	msgCollectResp uint64 adopted version, uint32 m, then m × (float64 secs,
//	               uint64 count)
//	msgPush        uint64 version, float64 rho, uint32 rows, uint32 cols,
//	               then rows·cols float64 (row-major P; rows, cols >= 1)
//	msgPushAck     empty
//
// Kinds 3 to 6 carried the retired worker-to-monitor report, reportAck,
// policy and policyResp frames. They are never reused.
const (
	msgPull        uint8 = 1
	msgPullResp    uint8 = 2
	msgCollect     uint8 = 7
	msgCollectResp uint8 = 8
	msgPush        uint8 = 9
	msgPushAck     uint8 = 10
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

// appendCollectResp encodes a collect answer: the adopted policy version
// and one (secs, count) pair per link.
func appendCollectResp(dst []byte, row []LinkTime, adopted int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(adopted))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(row)))
	for _, lt := range row {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(lt.Secs))
		dst = binary.BigEndian.AppendUint64(dst, lt.Count)
	}
	return dst
}

// decodeCollectResp decodes a collect answer into row, whose length is the
// group size the caller expects, and returns the adopted version. Every
// failure wraps errProtocol.
func decodeCollectResp(body []byte, row []LinkTime) (adopted int, err error) {
	if len(body) < 12 {
		return 0, fmt.Errorf("%w: collect answer body %d bytes, want >= 12", errProtocol, len(body))
	}
	if m := binary.BigEndian.Uint32(body[8:]); uint64(m) != uint64(len(row)) {
		return 0, fmt.Errorf("%w: collect answer has %d links, want %d", errProtocol, m, len(row))
	}
	if want := 12 + 16*len(row); len(body) != want {
		return 0, fmt.Errorf("%w: collect answer body %d bytes, want %d", errProtocol, len(body), want)
	}
	off := 12
	for j := range row {
		row[j] = LinkTime{
			Secs:  math.Float64frombits(binary.BigEndian.Uint64(body[off:])),
			Count: binary.BigEndian.Uint64(body[off+8:]),
		}
		off += 16
	}
	return int(binary.BigEndian.Uint64(body)), nil
}

// maxPolicyDim caps a pushed policy's rows and columns, bounding the body
// length arithmetic before anything is allocated.
const maxPolicyDim = 1 << 15

// appendPush encodes policy p, whose matrix must have at least one row and
// rows of equal, nonzero length.
func appendPush(dst []byte, p *Policy) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Version))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Rho))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.P)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.P[0])))
	for _, row := range p.P {
		for _, v := range row {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// checkPushShape reports an error unless p's matrix is one appendPush can
// encode: 1 to maxPolicyDim rows of one length between 1 and maxPolicyDim.
func checkPushShape(p [][]float64) error {
	if len(p) == 0 || len(p) > maxPolicyDim || len(p[0]) == 0 || len(p[0]) > maxPolicyDim {
		return fmt.Errorf("transport: cannot push a policy of %d rows", len(p))
	}
	for i, row := range p {
		if len(row) != len(p[0]) {
			return fmt.Errorf("transport: cannot push a policy whose row %d has %d entries and row 0 %d", i, len(row), len(p[0]))
		}
	}
	return nil
}

func parsePush(body []byte) (*Policy, error) {
	if len(body) < 24 {
		return nil, fmt.Errorf("transport: push body %d bytes, want >= 24", len(body))
	}
	rows := int(binary.BigEndian.Uint32(body[16:]))
	cols := int(binary.BigEndian.Uint32(body[20:]))
	// Bound both before multiplying: wire-supplied counts near 2^32 would
	// overflow the expected-length arithmetic.
	if rows < 1 || rows > maxPolicyDim || cols < 1 || cols > maxPolicyDim {
		return nil, fmt.Errorf("transport: push of a %d×%d policy, want 1 to %d rows and columns", rows, cols, maxPolicyDim)
	}
	if want := 24 + 8*rows*cols; len(body) != want {
		return nil, fmt.Errorf("transport: push body %d bytes, want %d for a %d×%d policy", len(body), want, rows, cols)
	}
	p := &Policy{
		Version: int(binary.BigEndian.Uint64(body[0:])),
		Rho:     math.Float64frombits(binary.BigEndian.Uint64(body[8:])),
		P:       make([][]float64, rows),
	}
	off := 24
	for i := range p.P {
		p.P[i] = make([]float64, cols)
		for j := range p.P[i] {
			p.P[i][j] = math.Float64frombits(binary.BigEndian.Uint64(body[off:]))
			off += 8
		}
	}
	return p, nil
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
// codec payload. Every failure wraps errProtocol. A well-formed vector
// with a NaN or ±Inf coordinate is decoded whole, in the codec's one pass,
// and its error wraps codec.ErrNonFinite as well, which PullClient.Receive
// reports as ErrNonFinite.
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
