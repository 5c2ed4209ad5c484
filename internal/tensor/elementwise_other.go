//go:build !amd64

package tensor

func sgdStepAVX2(params, grads, velocity []float64, lr, momentum, decay float64) { noAVX2() }

func blendAVX2(p, v []float64, c float64) { noAVX2() }

func addScaledAVX2(dst, src []float64, c float64) { noAVX2() }

func sumRowsAVX2(dst, a []float64, m, n int) { noAVX2() }

func expAVX2(dst, src []float64, c *[15][4]float64) int { noAVX2(); return 0 }

func softmaxShiftAVX2(e, logits []float64, m, n int) { noAVX2() }

func softmaxSumAVX2(sums, e []float64, m, n int) { noAVX2() }

func softmaxGradAVX2(grad, e, sums []float64, m, n int, scale float64) { noAVX2() }
