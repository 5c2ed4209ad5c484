package tensor

// matMulABt is the one matmul kernel every product goes through:
// out[i,j] = Σ_p a[i,p]·bt[j,p] for a (m×k) and bt (n×k), both contiguous
// along k. Every output element is one accumulator that starts at +0 and
// adds its k products in ascending p, whichever tile or remainder loop
// computes it.
func matMulABt(out, a, bt *Tensor) {
	dotRows(out.Data, a.Data, bt.Data, a.Shape[1], bt.Shape[0], 0, a.Shape[0])
}

// dotRows computes rows [lo, hi) of out = a·btᵀ in 4×2 register tiles: four
// rows of a against two rows of bt, eight accumulators per pass over k.
// Leftover columns run 4×1 and leftover rows 1×2 then 1×1, with the same
// per-element summation order.
func dotRows(od, ad, bd []float64, k, n, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := ad[i*k:][:k], ad[(i+1)*k:][:k], ad[(i+2)*k:][:k], ad[(i+3)*k:][:k]
		o0, o1, o2, o3 := od[i*n:][:n], od[(i+1)*n:][:n], od[(i+2)*n:][:n], od[(i+3)*n:][:n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0, b1 := bd[j*k:][:k], bd[(j+1)*k:][:k]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for p, x0 := range b0 {
				x1 := b1[p]
				y0, y1, y2, y3 := a0[p], a1[p], a2[p], a3[p]
				s00 += y0 * x0
				s01 += y0 * x1
				s10 += y1 * x0
				s11 += y1 * x1
				s20 += y2 * x0
				s21 += y2 * x1
				s30 += y3 * x0
				s31 += y3 * x1
			}
			o0[j], o0[j+1] = s00, s01
			o1[j], o1[j+1] = s10, s11
			o2[j], o2[j+1] = s20, s21
			o3[j], o3[j+1] = s30, s31
		}
		if j < n {
			b0 := bd[j*k:][:k]
			var s0, s1, s2, s3 float64
			for p, x0 := range b0 {
				s0 += a0[p] * x0
				s1 += a1[p] * x0
				s2 += a2[p] * x0
				s3 += a3[p] * x0
			}
			o0[j], o1[j], o2[j], o3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		a0, o0 := ad[i*k:][:k], od[i*n:][:n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0, b1 := bd[j*k:][:k], bd[(j+1)*k:][:k]
			var s0, s1 float64
			for p, y0 := range a0 {
				s0 += y0 * b0[p]
				s1 += y0 * b1[p]
			}
			o0[j], o0[j+1] = s0, s1
		}
		if j < n {
			b0 := bd[j*k:][:k]
			var s0 float64
			for p, y0 := range a0 {
				s0 += y0 * b0[p]
			}
			o0[j] = s0
		}
	}
}
