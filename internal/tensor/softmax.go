package tensor

import "fmt"

// Softmax holds the row softmax of a batch of logits in the two parts its
// readers take from it: the exponential of every logit less its row's
// maximum, and each row's sum of those. A probability is one division of
// the two, done only where it is read: the cross-entropy gradient
// (GradInto) divides every entry, a loss (Prob at the label) one per row.
//
// Run works four rows at a time with the row as the lane: on AVX2 CPUs
// the assembly (softmax_amd64.s) gathers one column of four rows into a
// YMM register, folds the row maximum with VMAXPD, taking the column as
// its first source, which is exactly the Go loop's if v > m { m = v },
// NaNs and signed zeros included, and sums and divides four rows at once.
// The exponentials of such a group lie column by column, four to a
// column, so the sum pass reads them contiguously; rows past the last
// full group lie one after another. The Go loops run the rows the
// assembly leaves, and every row with useAVX2 off: they are the portable
// kernel and the assembly's oracle, and each lane does the same IEEE
// operations in the same order on both.
//
// The zero Softmax is ready to use. Its buffers grow to the largest batch
// it has seen and are reused after that.
type Softmax struct {
	e    []float64 // Exp(logit − row maximum), in the layout above
	sums []float64 // per row: the sum of its exponentials in column order
	m, n int
}

// Run computes the softmax parts of the rows of logits (m×n, n ≥ 1)
// and keeps them until the next Run. Each row's maximum is the first
// logit that no later one exceeds; each exponential is Exp of the logit
// minus it (ExpInto), and each sum starts at +0 and adds the row's
// exponentials in column order.
func (s *Softmax) Run(logits *Tensor) {
	m, n := logits.Rows, logits.Cols
	if n < 1 {
		panic(fmt.Sprintf("tensor: Softmax of %dx%d logits, want at least one column", m, n))
	}
	checkRows("Softmax", logits, m, n)
	s.m, s.n = m, n
	if cap(s.e) < m*n || cap(s.sums) < m {
		buf := make([]float64, m*n+m)
		s.e, s.sums = buf[:m*n:m*n], buf[m*n:]
	}
	s.e, s.sums = s.e[:m*n], s.sums[:m]
	g := 0
	if useAVX2 {
		g = m &^ 3
		softmaxShiftAVX2(s.e, logits.Data, g, n)
	}
	for i := g; i < m; i++ {
		base, step := s.place(i)
		shiftRow(s.e, logits.Data[i*n:][:n], base, step)
	}
	ExpInto(s.e, s.e)
	if useAVX2 {
		softmaxSumAVX2(s.sums, s.e, g, n)
	}
	for i := g; i < m; i++ {
		base, step := s.place(i)
		s.sums[i] = sumRow(s.e, base, step, n)
	}
}

// Prob returns the softmax probability of column j in row i of the last
// Run: its exponential divided by its row's sum.
func (s *Softmax) Prob(i, j int) float64 {
	if uint(i) >= uint(s.m) || uint(j) >= uint(s.n) {
		panic(fmt.Sprintf("tensor: Softmax.Prob(%d, %d) outside %dx%d", i, j, s.m, s.n))
	}
	base, step := s.place(i)
	return s.e[base+j*step] / s.sums[i]
}

// GradInto writes into grad (m×n, the shape of the last Run) the gradient
// of scale times the summed cross-entropy of the rows against labels:
// per entry, the probability times scale, each product rounded on its
// own, and scale subtracted from each row's label entry afterwards.
func (s *Softmax) GradInto(grad *Tensor, labels []int, scale float64) {
	checkMatMulDst("Softmax.GradInto", grad, s.m, s.n)
	checkRows("Softmax.GradInto", grad, s.m, s.n)
	if len(labels) != s.m {
		panic(fmt.Sprintf("tensor: Softmax.GradInto with %d labels for %d rows", len(labels), s.m))
	}
	n, g := s.n, 0
	if useAVX2 {
		g = s.m &^ 3
		softmaxGradAVX2(grad.Data, s.e, s.sums, g, n, scale)
	}
	for i := g; i < s.m; i++ {
		base, step := s.place(i)
		gradRow(grad.Data[i*n:][:n], s.e, base, step, s.sums[i], scale)
	}
	for i, y := range labels {
		grad.Data[i*n+y] -= scale
	}
}

// place returns where row i's exponentials start in s.e and the step
// between its columns: 4 in a group of four rows, 1 after the last one.
func (s *Softmax) place(i int) (base, step int) {
	if i < s.m&^3 {
		return (i&^3)*s.n + i&3, 4
	}
	return i * s.n, 1
}

// shiftRow writes each logit of row minus the row's maximum into e at
// base, base+step, ...
func shiftRow(e, row []float64, base, step int) {
	maxv := row[0]
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	for j, v := range row {
		e[base+j*step] = v - maxv
	}
}

// sumRow returns the sum of the n exponentials of one row, from +0 in
// column order.
func sumRow(e []float64, base, step, n int) float64 {
	sum := 0.0
	for j := 0; j < n; j++ {
		sum += e[base+j*step]
	}
	return sum
}

// gradRow writes one row's probabilities times scale into dst.
func gradRow(dst, e []float64, base, step int, sum, scale float64) {
	for j := range dst {
		dst[j] = float64(float64(e[base+j*step]/sum) * scale)
	}
}
