package nn

import (
	"math"
	"math/rand"
	"testing"

	"netmax/internal/tensor"
)

func smallModel(seed int64) *Model {
	return ModelSpec{Hidden: []int{8}}.Build(seed, 4, 3)
}

func TestVectorRoundTrip(t *testing.T) {
	m := smallModel(1)
	v := vector(m)
	if len(v) != m.VectorLen() {
		t.Fatalf("Vector len %d, want %d", len(v), m.VectorLen())
	}
	m2 := smallModel(2)
	m2.SetVector(v)
	v2 := vector(m2)
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

// TestAddVectorToMatchesCopyAndAdd checks that adding the parameters in
// place gives the bits of copying them out and adding them in a loop, the
// sum the consensus averages were built on.
func TestAddVectorToMatchesCopyAndAdd(t *testing.T) {
	m := SimResNet18.Build(3, 10, 10)
	rng := rand.New(rand.NewSource(5))
	got := make([]float64, m.VectorLen())
	for i := range got {
		got[i] = rng.NormFloat64()
	}
	got[0], got[1] = math.Copysign(0, -1), math.Inf(1)
	want := append([]float64(nil), got...)
	m.AddVectorTo(got)
	for i, x := range vector(m) {
		want[i] += x
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVectorLenMatchesLayers(t *testing.T) {
	m := smallModel(1)
	want := 4*8 + 8 + 8*3 + 3
	if m.VectorLen() != want {
		t.Fatalf("VectorLen = %d, want %d", m.VectorLen(), want)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := SimResNet18.Build(7, 10, 10)
	b := SimResNet18.Build(7, 10, 10)
	va, vb := vector(a), vector(b)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("Build not deterministic for equal seeds")
		}
	}
}

// TestCloneTrainsLikeBuild checks that a clone starts where a model built
// from the same seed starts, trains to the same bits on the same batch,
// and shares no buffer with its source.
func TestCloneTrainsLikeBuild(t *testing.T) {
	m, x, labels := resNet18Batch()
	before := vector(m)
	c, built := m.Clone(), SimResNet18.Build(1, x.Cols, 10)
	cOpt, builtOpt := NewSGD(0.05), NewSGD(0.05)
	for i := 0; i < 3; i++ {
		c.Loss(x, labels).Backward()
		cOpt.Step(c)
		built.Loss(x, labels).Backward()
		builtOpt.Step(built)
	}
	got, want := vector(c), vector(built)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("clone parameter %d = %v after 3 steps, built model %v", i, got[i], want[i])
		}
	}
	for i, v := range vector(m) {
		if math.Float64bits(v) != math.Float64bits(before[i]) {
			t.Fatalf("training the clone changed its source's parameter %d", i)
		}
	}
	for i, g := range m.GradVector(make([]float64, m.VectorLen())) {
		if g != 0 {
			t.Fatalf("training the clone wrote its source's gradient %d", i)
		}
	}
}

func TestZooOrdering(t *testing.T) {
	// Paper's parameter counts: MobileNet < GoogLeNet < ResNet18 < ResNet50 < VGG19.
	if !(SimMobileNet.RealParams < SimGoogLeNet.RealParams &&
		SimGoogLeNet.RealParams < SimResNet18.RealParams &&
		SimResNet18.RealParams < SimResNet50.RealParams &&
		SimResNet50.RealParams < SimVGG19.RealParams) {
		t.Fatal("zoo RealParams ordering does not match the paper")
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("VGG19")
	if err != nil || s.RealParams != 143_700_000 {
		t.Fatalf("SpecByName(VGG19) = %+v, %v", s, err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("expected error for unknown spec")
	}
}

func TestModelBytes(t *testing.T) {
	if SimMobileNet.ModelBytes() != 16_800_000 {
		t.Fatalf("ModelBytes = %d", SimMobileNet.ModelBytes())
	}
}

func TestLossDecreasesUnderSGD(t *testing.T) {
	// Tiny separable problem: model must fit it quickly.
	rng := rand.New(rand.NewSource(5))
	n := 64
	x := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		labels[i] = c
		for j := 0; j < 4; j++ {
			x.Data[i*4+j] = rng.NormFloat64() * 0.3
		}
		x.Data[i*4+c] += 2.0
	}
	m := smallModel(11)
	opt := NewSGD(0.1)
	first := m.Loss(x, labels).Item()
	for it := 0; it < 200; it++ {
		loss := m.Loss(x, labels)
		loss.Backward()
		opt.Step(m)
	}
	last := m.Loss(x, labels).Item()
	if last > first*0.5 {
		t.Fatalf("SGD failed to reduce loss: %v -> %v", first, last)
	}
	if acc := m.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("accuracy after training = %v, want >= 0.9", acc)
	}
}

func TestGradVectorZerosWithoutBackward(t *testing.T) {
	m := smallModel(9)
	g := m.GradVector(make([]float64, m.VectorLen()))
	for i, v := range g {
		if v != 0 {
			t.Fatalf("GradVector[%d] = %v before backward, want 0", i, v)
		}
	}
}

func TestSGDWeightDecayShrinksParams(t *testing.T) {
	m := smallModel(13)
	opt := &SGD{LR: 0.1, Momentum: 0, WeightDecay: 0.5}
	before := vector(m)
	// No backward pass has run, so every gradient is 0: only weight decay
	// acts.
	opt.Step(m)
	after := vector(m)
	norm := func(v []float64) float64 {
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	if norm(after) >= norm(before) {
		t.Fatalf("weight decay did not shrink params: %v -> %v", norm(before), norm(after))
	}
}

func TestDecayLR(t *testing.T) {
	opt := NewSGD(0.1)
	opt.DecayLR(0.1)
	if math.Abs(opt.LR-0.01) > 1e-15 {
		t.Fatalf("LR = %v, want 0.01", opt.LR)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := smallModel(1)
	if got := m.Accuracy(tensor.New(0, 4), nil); got != 0 {
		t.Fatalf("Accuracy on empty = %v", got)
	}
}

func TestSetVectorWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	smallModel(1).SetVector([]float64{1})
}

// vector returns a fresh copy of m's parameter vector.
func vector(m *Model) []float64 { return m.CopyVector(make([]float64, m.VectorLen())) }
