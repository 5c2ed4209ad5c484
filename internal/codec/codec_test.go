package codec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randomVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	return v
}

// decode runs DecodeInto on a fresh dim-length vector.
func decode(c Codec, payload []byte, dim int, prior []float64) ([]float64, error) {
	got := make([]float64, dim)
	return got, c.DecodeInto(payload, got, prior)
}

func TestRawRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{0, 1, 7, 256, 1023} {
		vec := randomVec(rng, dim)
		payload := (Raw{}).AppendEncode(nil, vec)
		if int64(len(payload)) != (Raw{}).WireBytes(dim) {
			t.Fatalf("dim %d: payload %d bytes, WireBytes says %d", dim, len(payload), (Raw{}).WireBytes(dim))
		}
		got, err := decode(Raw{}, payload, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			if got[i] != vec[i] {
				t.Fatalf("dim %d coord %d: %v != %v (raw must be exact)", dim, i, got[i], vec[i])
			}
		}
	}
}

func TestFloat32RoundTripWithinTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(2000)
		vec := randomVec(rng, dim)
		payload := (Float32{}).AppendEncode(nil, vec)
		if int64(len(payload)) != (Float32{}).WireBytes(dim) {
			t.Fatalf("payload %d bytes, WireBytes says %d", len(payload), (Float32{}).WireBytes(dim))
		}
		got, err := decode(Float32{}, payload, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			// float32 rounding: relative error <= 2^-24.
			tol := math.Abs(vec[i]) * 6e-8
			if diff := math.Abs(got[i] - vec[i]); diff > tol {
				t.Fatalf("coord %d: |%v - %v| = %v > %v", i, got[i], vec[i], diff, tol)
			}
		}
	}
}

func TestFloat32ExactlyHalvesRaw(t *testing.T) {
	for _, dim := range []int{1, 100, 4_200_000} {
		if 2*(Float32{}).WireBytes(dim) != (Raw{}).WireBytes(dim) {
			t.Fatalf("dim %d: float32 %d vs raw %d", dim, (Float32{}).WireBytes(dim), (Raw{}).WireBytes(dim))
		}
	}
}

// TestTopKPreservesLargestMagnitudes checks the defining property: the k
// largest-|v| coordinates survive the round trip (as float32), and every
// other coordinate decodes to the prior.
func TestTopKPreservesLargestMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		dim := 2 + rng.Intn(500)
		vec := randomVec(rng, dim)
		c := NewTopK(0.1 + rng.Float64()*0.9)
		k := c.K(dim)

		payload := c.AppendEncode(nil, vec)
		if int64(len(payload)) != c.WireBytes(dim) {
			t.Fatalf("payload %d bytes, WireBytes says %d", len(payload), c.WireBytes(dim))
		}
		prior := randomVec(rng, dim)
		got, err := decode(c, payload, dim, prior)
		if err != nil {
			t.Fatal(err)
		}

		// Reference top-k set under the codec's ordering.
		ref := make([]int, dim)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool { return greater(vec, ref[a], ref[b]) })
		want := make(map[int]bool, k)
		for _, i := range ref[:k] {
			want[i] = true
		}

		for i := range got {
			if want[i] {
				if got[i] != float64(float32(vec[i])) {
					t.Fatalf("top-k coord %d: got %v, want %v", i, got[i], float64(float32(vec[i])))
				}
			} else if got[i] != prior[i] {
				t.Fatalf("untransmitted coord %d: got %v, want prior %v", i, got[i], prior[i])
			}
		}
	}
}

func TestTopKNilPriorDecodesZeros(t *testing.T) {
	vec := []float64{5, -9, 0.5, 2}
	c := NewTopK(0.5) // k = 2: coords 1 (-9) and 0 (5)
	got, err := decode(c, c.AppendEncode(nil, vec), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, -9, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTopKDeterministicOnTies(t *testing.T) {
	vec := []float64{1, -1, 1, -1, 0.5}
	c := NewTopK(0.4) // k = 2; all of coords 0..3 tie at |1|
	p1 := c.AppendEncode(nil, vec)
	p2 := c.AppendEncode(nil, vec)
	if string(p1) != string(p2) {
		t.Fatal("encoding not deterministic")
	}
	got, err := decode(c, p1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Lower index wins ties: coords 0 and 1.
	want := []float64{1, -1, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTopKFracClamping(t *testing.T) {
	if k := NewTopK(-1).K(100); k != 25 { // clamps to default 0.25
		t.Fatalf("K = %d", k)
	}
	if k := NewTopK(5).K(100); k != 100 {
		t.Fatalf("K = %d", k)
	}
	if k := NewTopK(0.001).K(100); k != 1 { // floor of one coordinate
		t.Fatalf("K = %d", k)
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if _, err := decode(Raw{}, make([]byte, 12), 2, nil); err == nil {
		t.Fatal("raw accepted short payload")
	}
	if _, err := decode(Float32{}, make([]byte, 9), 2, nil); err == nil {
		t.Fatal("float32 accepted misaligned payload")
	}
	if _, err := decode(TopK{}, []byte{0, 0}, 2, nil); err == nil {
		t.Fatal("topk accepted truncated header")
	}
	// k claims more entries than the payload holds.
	if _, err := decode(TopK{}, []byte{0, 0, 0, 9, 1, 2, 3}, 2, nil); err == nil {
		t.Fatal("topk accepted inconsistent k")
	}
	// Index out of range for dim.
	c := NewTopK(1)
	payload := c.AppendEncode(nil, []float64{1, 2, 3})
	if _, err := decode(c, payload, 2, nil); err == nil {
		t.Fatal("topk accepted out-of-range index")
	}
	// Indices that repeat or descend: the encoder never emits them.
	for _, idx := range [][2]byte{{1, 1}, {2, 0}} {
		bad := []byte{0, 0, 0, 2, 0, 0, 0, idx[0], 0, 0, 0, 0, 0, 0, 0, idx[1], 0, 0, 0, 0}
		if _, err := decode(TopK{}, bad, 3, nil); err == nil {
			t.Fatalf("topk accepted indices %v", idx)
		}
	}
	// A prior whose length disagrees with the vector's.
	if _, err := decode(c, payload, 3, []float64{1, 2}); err == nil {
		t.Fatal("topk accepted a prior of the wrong length")
	}
}

func TestByNameAndByID(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
		d, err := ByID(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		if d.ID() != c.ID() {
			t.Fatalf("ByID round trip broken for %q", name)
		}
	}
	if c, err := ByName(""); err != nil || c.Name() != "raw" {
		t.Fatalf("empty name should default to raw, got %v %v", c, err)
	}
	if _, err := ByName("zstd"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := ByID(200); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestCodecsReduceWireBytesOnSimMobileNet pins the acceptance numbers: on a
// MobileNet-sized vector (4.2M coordinates) float32 is exactly 2x smaller
// than raw and default top-k is ~4x smaller.
func TestCodecsReduceWireBytesOnSimMobileNet(t *testing.T) {
	const dim = 4_200_000
	raw := (Raw{}).WireBytes(dim)
	f32 := (Float32{}).WireBytes(dim)
	topk := NewTopK(DefaultTopKFrac).WireBytes(dim)
	if raw < 2*f32 {
		t.Fatalf("float32 %d not >= 2x smaller than raw %d", f32, raw)
	}
	if raw < 2*topk {
		t.Fatalf("topk %d not >= 2x smaller than raw %d", topk, raw)
	}
}
