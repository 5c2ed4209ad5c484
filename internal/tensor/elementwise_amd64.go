package tensor

// The element-wise kernels of elementwise_amd64.s. Each runs the first
// len&^3 elements of its slices, or the first n&^1 columns of each of m
// rows; the caller checks the lengths and runs the rest in Go.

//go:noescape
func sgdStepAVX2(params, grads, velocity []float64, lr, momentum, decay float64)

//go:noescape
func blendAVX2(p, v []float64, c float64)

//go:noescape
func addScaledAVX2(dst, src []float64, c float64)

//go:noescape
func sumRowsAVX2(dst, a []float64, m, n int)

// expAVX2 is ExpInto's kernel (exp_amd64.s). It returns how many leading
// elements it wrote: len(src)&^3, or the start of the first group of four
// that holds an element it leaves to Exp.
//
//go:noescape
func expAVX2(dst, src []float64, c *[15][4]float64) int

// The softmax kernels of softmax_amd64.s. Each runs the first m rows, m a
// multiple of 4; the caller checks the lengths and runs the rest in Go.

//go:noescape
func softmaxShiftAVX2(e, logits []float64, m, n int)

//go:noescape
func softmaxSumAVX2(sums, e []float64, m, n int)

//go:noescape
func softmaxGradAVX2(grad, e, sums []float64, m, n int, scale float64)
