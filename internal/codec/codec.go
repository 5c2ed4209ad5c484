// Package codec implements the model-vector compression codecs of the
// communication-efficient transport. NetMax's whole premise is that
// communication, not computation, bounds decentralized training on
// heterogeneous networks; the codecs here shrink the bytes a model pull
// puts on the wire, trading (for the lossy one) a bounded amount of
// precision for bandwidth.
//
// Two codecs are provided, both dense (every coordinate travels):
//
//	raw      float64 coordinates verbatim (8 bytes each) — exact
//	float32  coordinates quantized to float32 (4 bytes each) — 2x smaller
//
// A codec encodes one flat parameter vector into a payload and decodes a
// payload back into a vector.
//
// Every codec is deterministic: identical inputs produce identical payloads,
// which the discrete-event engine's bitwise-determinism gate relies on.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire identifiers, stable across versions: they appear in the transport's
// frame header, so renumbering breaks protocol compatibility. Id 2 is
// retired (it carried a sparse top-k codec) and never reused.
const (
	IDRaw     uint8 = 0
	IDFloat32 uint8 = 1
)

// Codec converts between flat model vectors and wire payloads.
type Codec interface {
	// Name is the stable flag-facing name ("raw", "float32").
	Name() string
	// ID is the wire identifier carried in the transport frame header.
	ID() uint8
	// AppendEncode appends the payload encoding of vec to dst and returns
	// the extended slice (append-style, so callers can reuse buffers).
	AppendEncode(dst []byte, vec []float64) []byte
	// DecodeInto reconstructs a len(dst)-length vector from payload into
	// caller-owned dst, so hot loops reuse buffers. It checks each
	// coordinate as it writes it: a vector holding a NaN or ±Inf is
	// written whole and fails with ErrNonFinite.
	DecodeInto(payload []byte, dst []float64) error
	// WireBytes predicts the payload size for a dim-length vector. This is
	// the figure the simulator's bandwidth model charges per transfer.
	WireBytes(dim int) int64
}

// ByName resolves a flag value to a codec.
func ByName(name string) (Codec, error) {
	switch name {
	case "raw", "":
		return Raw{}, nil
	case "float32":
		return Float32{}, nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (want raw or float32)", name)
}

// ByID resolves a wire identifier to a codec able to decode its payloads.
func ByID(id uint8) (Codec, error) {
	switch id {
	case IDRaw:
		return Raw{}, nil
	case IDFloat32:
		return Float32{}, nil
	}
	return nil, fmt.Errorf("codec: unknown codec id %d", id)
}

// ErrNonFinite reports a payload that decoded to a vector with a NaN or
// ±Inf coordinate. The payload is well formed and the vector is written
// whole; whether to use it is the caller's decision. The decoders check
// each coordinate as they write it, with one comparison: v-v is 0 for
// every finite v and NaN otherwise.
var ErrNonFinite = errors.New("codec: decoded vector has a non-finite coordinate")

// Names lists the flag-facing codec names.
func Names() []string { return []string{"raw", "float32"} }

// --- raw ---

// Raw transmits float64 coordinates verbatim: exact, 8 bytes per coordinate.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// ID implements Codec.
func (Raw) ID() uint8 { return IDRaw }

// AppendEncode implements Codec.
func (Raw) AppendEncode(dst []byte, vec []float64) []byte {
	for _, v := range vec {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeInto implements Codec.
func (Raw) DecodeInto(payload []byte, dst []float64) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("codec: raw payload %d bytes, want %d for dim %d", len(payload), 8*len(dst), len(dst))
	}
	bad := false
	for i := range dst {
		v := math.Float64frombits(binary.BigEndian.Uint64(payload[8*i:]))
		dst[i] = v
		if v-v != 0 {
			bad = true
		}
	}
	if bad {
		return ErrNonFinite
	}
	return nil
}

// WireBytes implements Codec.
func (Raw) WireBytes(dim int) int64 { return 8 * int64(dim) }

// --- float32 ---

// Float32 quantizes coordinates to float32: 4 bytes per coordinate, relative
// error bounded by float32 rounding (~1.2e-7), halving the raw wire size.
// This matches what GPU frameworks ship by default, so it is also the
// codec whose WireBytes agrees with nn.ModelSpec.ModelBytes.
type Float32 struct{}

// Name implements Codec.
func (Float32) Name() string { return "float32" }

// ID implements Codec.
func (Float32) ID() uint8 { return IDFloat32 }

// AppendEncode implements Codec.
func (Float32) AppendEncode(dst []byte, vec []float64) []byte {
	for _, v := range vec {
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

// DecodeInto implements Codec.
func (Float32) DecodeInto(payload []byte, dst []float64) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("codec: float32 payload %d bytes, want %d for dim %d", len(payload), 4*len(dst), len(dst))
	}
	bad := false
	for i := range dst {
		v := float64(math.Float32frombits(binary.BigEndian.Uint32(payload[4*i:])))
		dst[i] = v
		if v-v != 0 {
			bad = true
		}
	}
	if bad {
		return ErrNonFinite
	}
	return nil
}

// WireBytes implements Codec.
func (Float32) WireBytes(dim int) int64 { return 4 * int64(dim) }
