// Package codec implements the model-vector compression codecs of the
// communication-efficient transport. NetMax's whole premise is that
// communication, not computation, bounds decentralized training on
// heterogeneous networks; the codecs here shrink the bytes a model pull
// puts on the wire, trading (for the lossy ones) a bounded amount of
// precision for bandwidth.
//
// Three codecs are provided:
//
//	raw      float64 coordinates verbatim (8 bytes each) — exact
//	float32  coordinates quantized to float32 (4 bytes each) — 2x smaller
//	topk     the k largest-magnitude coordinates as (index, float32 value)
//	         pairs — sparsified partial pulls, ~8·k bytes total
//
// A codec encodes one flat parameter vector into a payload and decodes a
// payload back into a vector. Sparse codecs transmit only a subset of
// coordinates; on decode the untransmitted coordinates are filled from the
// receiver's own current vector (the prior), which turns a top-k pull into
// a partial model pull: the blend step leaves local values untouched on
// coordinates the peer did not send.
//
// Every codec is deterministic: identical inputs produce identical payloads,
// which the discrete-event engine's bitwise-determinism gate relies on.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Wire identifiers, stable across versions: they appear in the transport's
// frame header, so renumbering breaks protocol compatibility.
const (
	IDRaw     uint8 = 0
	IDFloat32 uint8 = 1
	IDTopK    uint8 = 2
)

// Codec converts between flat model vectors and wire payloads.
type Codec interface {
	// Name is the stable flag-facing name ("raw", "float32", "topk").
	Name() string
	// ID is the wire identifier carried in the transport frame header.
	ID() uint8
	// AppendEncode appends the payload encoding of vec to dst and returns
	// the extended slice (append-style, so callers can reuse buffers).
	AppendEncode(dst []byte, vec []float64) []byte
	// DecodeInto reconstructs a len(dst)-length vector from payload into
	// caller-owned dst, so hot loops reuse buffers. prior, when non-nil,
	// supplies values for coordinates the codec did not transmit (sparse
	// codecs); it must have length len(dst). Dense codecs ignore it. dst
	// and prior may be the same slice; otherwise prior is never written.
	DecodeInto(payload []byte, dst, prior []float64) error
	// WireBytes predicts the payload size for a dim-length vector. This is
	// the figure the simulator's bandwidth model charges per transfer.
	WireBytes(dim int) int64
	// Sparse reports whether decoding consults prior (the codec transmits
	// only a subset of coordinates). Receivers skip materializing a prior
	// for dense codecs.
	Sparse() bool
}

// ByName resolves a flag value to a codec. "topk" uses DefaultTopKFrac;
// use NewTopK for an explicit fraction.
func ByName(name string) (Codec, error) {
	switch name {
	case "raw", "":
		return Raw{}, nil
	case "float32":
		return Float32{}, nil
	case "topk":
		return NewTopK(DefaultTopKFrac), nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (want raw, float32 or topk)", name)
}

// ByID resolves a wire identifier to a codec able to decode its payloads.
// (Top-k payloads are self-describing — k travels in the payload — so the
// returned codec decodes any fraction.)
func ByID(id uint8) (Codec, error) {
	switch id {
	case IDRaw:
		return Raw{}, nil
	case IDFloat32:
		return Float32{}, nil
	case IDTopK:
		return NewTopK(DefaultTopKFrac), nil
	}
	return nil, fmt.Errorf("codec: unknown codec id %d", id)
}

// Names lists the flag-facing codec names.
func Names() []string { return []string{"raw", "float32", "topk"} }

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
func (Raw) DecodeInto(payload []byte, dst, _ []float64) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("codec: raw payload %d bytes, want %d for dim %d", len(payload), 8*len(dst), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[8*i:]))
	}
	return nil
}

// WireBytes implements Codec.
func (Raw) WireBytes(dim int) int64 { return 8 * int64(dim) }

// Sparse implements Codec.
func (Raw) Sparse() bool { return false }

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
func (Float32) DecodeInto(payload []byte, dst, _ []float64) error {
	if len(payload) != 4*len(dst) {
		return fmt.Errorf("codec: float32 payload %d bytes, want %d for dim %d", len(payload), 4*len(dst), len(dst))
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(payload[4*i:])))
	}
	return nil
}

// WireBytes implements Codec.
func (Float32) WireBytes(dim int) int64 { return 4 * int64(dim) }

// Sparse implements Codec.
func (Float32) Sparse() bool { return false }

// --- top-k ---

// DefaultTopKFrac is the fraction of coordinates the "topk" flag value
// keeps: a quarter of the model per pull, an 8x reduction versus raw.
const DefaultTopKFrac = 0.25

// TopK transmits only the k = ceil(Frac·dim) largest-magnitude coordinates
// as (uint32 index, float32 value) pairs behind a uint32 count header.
// Untransmitted coordinates decode to the receiver's prior values, making a
// top-k pull a partial model pull. Ties in magnitude break toward the lower
// index so encoding is deterministic.
type TopK struct {
	// Frac is the fraction of coordinates kept, clamped to (0, 1].
	Frac float64
}

// NewTopK returns a TopK codec keeping the given fraction of coordinates.
// Fractions outside (0, 1] are clamped.
func NewTopK(frac float64) TopK {
	if frac <= 0 {
		frac = DefaultTopKFrac
	}
	if frac > 1 {
		frac = 1
	}
	return TopK{Frac: frac}
}

// Name implements Codec.
func (TopK) Name() string { return "topk" }

// ID implements Codec.
func (TopK) ID() uint8 { return IDTopK }

// K returns the number of coordinates kept for a dim-length vector.
func (c TopK) K(dim int) int {
	if dim == 0 {
		return 0
	}
	frac := c.Frac
	if frac <= 0 || frac > 1 {
		frac = DefaultTopKFrac
	}
	k := int(math.Ceil(frac * float64(dim)))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// AppendEncode implements Codec.
func (c TopK) AppendEncode(dst []byte, vec []float64) []byte {
	k := c.K(len(vec))
	idx := topKIndices(vec, k)
	dst = binary.BigEndian.AppendUint32(dst, uint32(k))
	for _, i := range idx {
		dst = binary.BigEndian.AppendUint32(dst, uint32(i))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(vec[i])))
	}
	return dst
}

// DecodeInto implements Codec.
func (TopK) DecodeInto(payload []byte, dst, prior []float64) error {
	dim := len(dst)
	if len(payload) < 4 {
		return fmt.Errorf("codec: topk payload %d bytes, want >= 4", len(payload))
	}
	k := int(binary.BigEndian.Uint32(payload))
	if want := 4 + 8*k; len(payload) != want {
		return fmt.Errorf("codec: topk payload %d bytes, want %d for k=%d", len(payload), want, k)
	}
	if k > dim {
		return fmt.Errorf("codec: topk k=%d exceeds dim %d", k, dim)
	}
	if prior != nil && len(prior) != dim {
		return fmt.Errorf("codec: topk prior length %d, want %d", len(prior), dim)
	}
	// Validate every index before writing so a malformed payload leaves
	// dst untouched. AppendEncode emits strictly ascending indices; a
	// repeated or out-of-order one marks a corrupt payload.
	prev := -1
	for e := 0; e < k; e++ {
		i := int(binary.BigEndian.Uint32(payload[4+8*e:]))
		if i >= dim {
			return fmt.Errorf("codec: topk index %d out of range for dim %d", i, dim)
		}
		if i <= prev {
			return fmt.Errorf("codec: topk index %d follows %d; indices must ascend", i, prev)
		}
		prev = i
	}
	if prior == nil {
		for i := range dst {
			dst[i] = 0
		}
	} else if dim > 0 && &prior[0] != &dst[0] {
		copy(dst, prior)
	}
	for e := 0; e < k; e++ {
		off := 4 + 8*e
		i := int(binary.BigEndian.Uint32(payload[off:]))
		dst[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(payload[off+4:])))
	}
	return nil
}

// WireBytes implements Codec.
func (c TopK) WireBytes(dim int) int64 { return 4 + 8*int64(c.K(dim)) }

// Sparse implements Codec.
func (TopK) Sparse() bool { return true }

// topKIndices returns the indices of the k largest-magnitude entries of vec
// in ascending index order. Selection is a deterministic quickselect
// (median-of-three pivot, ties broken toward the lower index), so the same
// vector always yields the same payload.
func topKIndices(vec []float64, k int) []int {
	idx := make([]int, len(vec))
	for i := range idx {
		idx[i] = i
	}
	if k < len(idx) {
		quickSelect(vec, idx, k)
		idx = idx[:k]
	}
	// Canonical ascending-index order.
	sort.Ints(idx)
	return idx
}

// greater reports whether coordinate a outranks coordinate b: larger
// magnitude wins, lower index breaks ties.
func greater(vec []float64, a, b int) bool {
	ma, mb := math.Abs(vec[a]), math.Abs(vec[b])
	if ma != mb {
		return ma > mb
	}
	return a < b
}

// quickSelect partitions idx so its first k entries are the top-k
// coordinates of vec under greater (in arbitrary order).
func quickSelect(vec []float64, idx []int, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 1 {
		p := partition(vec, idx, lo, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// partition performs a Hoare-style partition of idx[lo:hi] around a
// median-of-three pivot, returning the pivot's final position. Entries
// before it outrank it; entries after do not.
func partition(vec []float64, idx []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	last := hi - 1
	// Median-of-three: order (lo, mid, last) so idx[mid] is the median.
	if greater(vec, idx[mid], idx[lo]) {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if greater(vec, idx[last], idx[lo]) {
		idx[last], idx[lo] = idx[lo], idx[last]
	}
	if greater(vec, idx[mid], idx[last]) {
		idx[mid], idx[last] = idx[last], idx[mid]
	}
	pivot := idx[last]
	store := lo
	for i := lo; i < last; i++ {
		if greater(vec, idx[i], pivot) {
			idx[i], idx[store] = idx[store], idx[i]
			store++
		}
	}
	idx[store], idx[last] = idx[last], idx[store]
	return store
}
