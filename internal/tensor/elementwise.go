package tensor

import "fmt"

// The element-wise passes below follow gemm's pattern. Each lane, an
// element or a column, is independent of the others, so on amd64 CPUs with
// AVX2 the assembly (elementwise_amd64.s) runs the body whose length is a
// multiple of 4 (of 2 for the column sums, whose last pair of columns
// takes an XMM register), four lanes to a YMM register, and the Go loop
// runs the rest, if any. Each lane does the same IEEE operations in the
// same order on both, with multiply and add in separate instructions, so
// the assembly gives the Go loop's bits. With useAVX2 off the Go loop runs
// every lane: it is the portable kernel and the assembly's oracle.

// SGDStep applies one momentum SGD update with weight decay to params,
// element by element:
//
//	g' = g + decay·x,  vel = momentum·vel − lr·g',  x = x + vel
//
// grads and velocity must be at least as long as params; velocity is
// updated in place. None of the three may overlap another.
func SGDStep(params, grads, velocity []float64, lr, momentum, decay float64) {
	n := len(params)
	grads, velocity = grads[:n], velocity[:n]
	i := 0
	if useAVX2 {
		i = n &^ 3
		sgdStepAVX2(params[:i], grads[:i], velocity[:i], lr, momentum, decay)
	}
	sgdStepGo(params[i:], grads[i:], velocity[i:], lr, momentum, decay)
}

func sgdStepGo(params, grads, velocity []float64, lr, momentum, decay float64) {
	g, v := grads[:len(params)], velocity[:len(params)]
	for j, x := range params {
		gj := g[j] + float64(decay*x)
		v[j] = float64(momentum*v[j]) - float64(lr*gj)
		params[j] = x + v[j]
	}
}

// Blend performs p += c·(v − p) element by element, i.e. p = (1−c)·p + c·v
// with the difference taken first. v must be at least as long as p.
func Blend(p, v []float64, c float64) {
	v = v[:len(p)]
	i := 0
	if useAVX2 {
		i = len(p) &^ 3
		blendAVX2(p[:i], v[:i], c)
	}
	blendGo(p[i:], v[i:], c)
}

func blendGo(p, v []float64, c float64) {
	v = v[:len(p)]
	for i, x := range p {
		p[i] = x + float64(c*(v[i]-x))
	}
}

// AddScaled performs dst += c·src element by element. src must be at
// least as long as dst and must not overlap it.
func AddScaled(dst, src []float64, c float64) {
	src = src[:len(dst)]
	i := 0
	if useAVX2 {
		i = len(dst) &^ 3
		addScaledAVX2(dst[:i], src[:i], c)
	}
	addScaledGo(dst[i:], src[i:], c)
}

func addScaledGo(dst, src []float64, c float64) {
	src = src[:len(dst)]
	for i, x := range src {
		dst[i] += float64(c * x)
	}
}

// SumRowsInto writes the column-wise sums of a into dst, whose length
// is a.Cols, overwriting it. Each sum starts at +0 and adds the rows in
// order. dst must not overlap a.
func SumRowsInto(dst []float64, a *Tensor) {
	m, n := a.Rows, a.Cols
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: SumRowsInto dst length %d, want %d", len(dst), n))
	}
	checkRows("SumRowsInto", a, m, n)
	j := 0
	if useAVX2 {
		j = n &^ 1
		sumRowsAVX2(dst, a.Data, m, n)
	}
	if j < n {
		sumRowsGo(dst, a.Data, m, n, j)
	}
}

// sumRowsGo writes the sums of columns from through n−1 into dst.
func sumRowsGo(dst, a []float64, m, n, from int) {
	d := dst[from:n]
	clear(d)
	for i := 0; i < m; i++ {
		for j, x := range a[i*n+from:][:len(d)] {
			d[j] += x
		}
	}
}

// checkRows panics unless a holds its m×n elements: the assembly reads
// them without bounds checks.
func checkRows(op string, a *Tensor, m, n int) {
	if len(a.Data) < m*n {
		panic(fmt.Sprintf("tensor: %s operand length %d, want %d", op, len(a.Data), m*n))
	}
}
