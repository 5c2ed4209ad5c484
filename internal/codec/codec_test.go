package codec

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"netmax/internal/data"
	"netmax/internal/nn"
)

func randomVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	return v
}

// decode runs DecodeInto on a fresh dim-length vector.
func decode(c Codec, payload []byte, dim int) ([]float64, error) {
	got := make([]float64, dim)
	return got, c.DecodeInto(payload, got)
}

func TestRawRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{0, 1, 7, 256, 1023} {
		vec := randomVec(rng, dim)
		payload := (Raw{}).AppendEncode(nil, vec)
		if int64(len(payload)) != (Raw{}).WireBytes(dim) {
			t.Fatalf("dim %d: payload %d bytes, WireBytes says %d", dim, len(payload), (Raw{}).WireBytes(dim))
		}
		got, err := decode(Raw{}, payload, dim)
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
		got, err := decode(Float32{}, payload, dim)
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

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if _, err := decode(Raw{}, make([]byte, 12), 2); err == nil {
		t.Fatal("raw accepted short payload")
	}
	if _, err := decode(Float32{}, make([]byte, 9), 2); err == nil {
		t.Fatal("float32 accepted misaligned payload")
	}
	if _, err := decode(Raw{}, make([]byte, 8), 0); err == nil {
		t.Fatal("raw accepted a payload longer than the vector")
	}
}

// TestDecodeReportsNonFinite pins each decoder's one-comparison check to
// math.IsNaN || math.IsInf on the values where they could part: NaN, the
// infinities, both zeros, a subnormal and the largest finite values (which
// float32 rounds to ±Inf), at the start, the middle and the end of a
// vector. A non-finite vector must still be written whole.
func TestDecodeReportsNonFinite(t *testing.T) {
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -2.5,
	} {
		for _, c := range []Codec{Raw{}, Float32{}} {
			sent := v
			if c.ID() == IDFloat32 {
				sent = float64(float32(v))
			}
			for at := 0; at < 3; at++ {
				vec := []float64{1, 2, 3}
				vec[at] = v
				got, err := decode(c, c.AppendEncode(nil, vec), len(vec))
				want := []float64{1, 2, 3}
				want[at] = sent
				for i, w := range want {
					if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
						t.Errorf("%s decoding %v at %d: coordinate %d = %v, want %v", c.Name(), v, at, i, got[i], w)
					}
				}
				nonFinite := math.IsNaN(sent) || math.IsInf(sent, 0)
				if (nonFinite && !errors.Is(err, ErrNonFinite)) || (!nonFinite && err != nil) {
					t.Errorf("%s decoding %v at %d: err = %v, want non-finite %v", c.Name(), v, at, err, nonFinite)
				}
			}
		}
	}
	for _, c := range []Codec{Raw{}, Float32{}} {
		if err := c.DecodeInto(nil, nil); err != nil {
			t.Errorf("%s: an empty vector fails with %v", c.Name(), err)
		}
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
	// Id 2 carried the retired sparse top-k codec; it stays unknown.
	for _, id := range []uint8{2, 200} {
		if _, err := ByID(id); err == nil {
			t.Fatalf("unknown id %d accepted", id)
		}
	}
	if _, err := ByName("topk"); err == nil {
		t.Fatal("retired topk codec accepted by name")
	}
}

// TestCodecsReduceWireBytesOnSimMobileNet pins the acceptance numbers: on a
// MobileNet-sized vector (4.2M coordinates) float32 is 2x smaller than raw.
func TestCodecsReduceWireBytesOnSimMobileNet(t *testing.T) {
	const dim = 4_200_000
	raw := (Raw{}).WireBytes(dim)
	f32 := (Float32{}).WireBytes(dim)
	if raw < 2*f32 {
		t.Fatalf("float32 %d not >= 2x smaller than raw %d", f32, raw)
	}
}

// BenchmarkDecode times one DecodeInto of each codec, its finiteness check
// included, at the live benchmark's model size (MobileNet's stand-in on
// MNIST): the decode every live pull runs on the pulled vector.
func BenchmarkDecode(b *testing.B) {
	dim := nn.SimMobileNet.Build(1, data.SynthMNIST.Dim, data.SynthMNIST.Classes).VectorLen()
	vec := randomVec(rand.New(rand.NewSource(3)), dim)
	dst := make([]float64, dim)
	for _, c := range []Codec{Raw{}, Float32{}} {
		b.Run(c.Name(), func(b *testing.B) {
			payload := c.AppendEncode(nil, vec)
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(payload, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
