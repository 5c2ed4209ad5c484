package nn

import (
	"fmt"
	"math/rand"
)

// ModelSpec describes one of the paper's models. The learning network we
// actually train is a small MLP (hidden layout below); the timing quantities
// — RealParams and ComputeSecs — are taken from the paper's models so that
// the simulator's communication/computation ratios match the hardware the
// paper measured (see docs/ARCHITECTURE.md). Communication time for a model transfer is
// proportional to RealParams*4 bytes; computation time per local iteration is
// ComputeSecs on the reference GPU.
type ModelSpec struct {
	Name        string
	RealParams  int64   // parameter count of the paper's model
	ComputeSecs float64 // per-iteration local gradient time on the reference GPU (batch 128)
	Hidden      []int   // hidden layer widths of the trained MLP stand-in
}

// The compute times are calibrated so that, combined with the simnet link
// rates, the Fig. 3 shape holds: GPU gradient computation is cheaper than
// network transfer, inter-machine iteration time lands at 2-4x intra-machine,
// and VGG19 iterations take ~2x ResNet18 (Section II-B: "communication time
// usually dominates").
var (
	// SimMobileNet mirrors MobileNet (4.2M params).
	SimMobileNet = ModelSpec{Name: "MobileNet", RealParams: 4_200_000, ComputeSecs: 0.05, Hidden: []int{18}}
	// SimResNet18 mirrors ResNet18 (11.7M params).
	SimResNet18 = ModelSpec{Name: "ResNet18", RealParams: 11_700_000, ComputeSecs: 0.10, Hidden: []int{40}}
	// SimResNet50 mirrors ResNet50 (25.6M params).
	SimResNet50 = ModelSpec{Name: "ResNet50", RealParams: 25_600_000, ComputeSecs: 0.18, Hidden: []int{56}}
	// SimVGG19 mirrors VGG19 (143.7M params).
	SimVGG19 = ModelSpec{Name: "VGG19", RealParams: 143_700_000, ComputeSecs: 0.20, Hidden: []int{72}}
	// SimGoogLeNet mirrors GoogLeNet (6.8M params).
	SimGoogLeNet = ModelSpec{Name: "GoogLeNet", RealParams: 6_800_000, ComputeSecs: 0.08, Hidden: []int{24}}
)

// Specs lists the full zoo.
var Specs = []ModelSpec{SimMobileNet, SimResNet18, SimResNet50, SimVGG19, SimGoogLeNet}

// SpecByName returns the spec with the given name.
func SpecByName(name string) (ModelSpec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return ModelSpec{}, fmt.Errorf("nn: unknown model spec %q", name)
}

// ModelBytes returns the serialized size of the paper model in bytes
// (float32 parameters, as PyTorch would send them).
func (s ModelSpec) ModelBytes() int64 { return s.RealParams * 4 }

// Build constructs the MLP stand-in for this spec with the given input
// dimensionality and class count. Identical seeds produce identical initial
// parameters, which the decentralized trainers rely on.
func (s ModelSpec) Build(seed int64, inputDim, classes int) *Model {
	widths := append(append([]int{inputDim}, s.Hidden...), classes)
	return newModel(rand.New(rand.NewSource(seed)), widths)
}
