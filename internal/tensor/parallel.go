package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel execution substrate: a persistent pool of worker goroutines that
// large kernels (MatMul and friends) shard row-panels across. The pool is
// lazily started at first use and sized to runtime.NumCPU(); workers block on
// an unbuffered-receive loop and cost nothing while idle.
//
// Two properties the rest of the repository depends on:
//
//   - Determinism: work is sharded so that every output element is produced
//     by exactly one task using the same arithmetic order as the serial
//     kernel, so parallel results are bitwise identical to serial ones.
//   - No deadlock under nesting: when the queue is full (e.g. parallel
//     worker stepping in the engine issuing parallel MatMuls), the caller
//     runs the chunk itself instead of blocking on submission, so progress
//     never depends on a free pool worker.

// parDegree is the configured parallel degree; 0 means runtime.NumCPU().
var parDegree atomic.Int64

// SetParallelism sets the degree of intra-op parallelism: 0 restores the
// default (NumCPU), 1 forces every kernel onto the calling goroutine (the
// serial baseline), n > 1 allows up to n-way sharding. It returns the
// previous setting. Safe to call concurrently; kernels already in flight
// finish under the old degree.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(parDegree.Swap(int64(n)))
}

// Parallelism reports the effective parallel degree kernels run at.
func Parallelism() int {
	if n := int(parDegree.Load()); n > 0 {
		return n
	}
	return runtime.NumCPU()
}

type task struct {
	f      func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce sync.Once
	tasks    chan task
)

func ensurePool() {
	poolOnce.Do(func() {
		n := runtime.NumCPU()
		tasks = make(chan task, 4*n)
		for i := 0; i < n; i++ {
			go func() {
				for t := range tasks {
					t.f(t.lo, t.hi)
					t.wg.Done()
				}
			}()
		}
	})
}

// parallelFor splits [0, n) into one contiguous chunk per available worker
// (at least grain iterations each) and runs f over the chunks concurrently.
// The caller always executes at least one chunk itself and never blocks
// handing out work, so nested parallelFor calls cannot deadlock.
func parallelFor(n, grain int, f func(lo, hi int)) {
	p := Parallelism()
	if grain < 1 {
		grain = 1
	}
	if p <= 1 || n <= grain {
		f(0, n)
		return
	}
	chunks := (n + grain - 1) / grain
	if chunks > p {
		chunks = p
	}
	ensurePool()
	size := (n + chunks - 1) / chunks
	var wg sync.WaitGroup
	lo := 0
	for lo < n {
		hi := lo + size
		if hi > n {
			hi = n
		}
		if hi == n {
			// Final chunk runs on the caller.
			f(lo, hi)
			break
		}
		wg.Add(1)
		select {
		case tasks <- task{f: f, lo: lo, hi: hi, wg: &wg}:
		default:
			// Queue full (nested parallelism): do it ourselves.
			f(lo, hi)
			wg.Done()
		}
		lo = hi
	}
	wg.Wait()
}

// matMulGrainFlops is the approximate flop count below which sharding a
// MatMul costs more than it saves; panels are sized so each task does at
// least this much work. The model-zoo MLP matmuls (batch 16, widths ≤ 72)
// stay below it and run serially, which is the right call at that size.
const matMulGrainFlops = 64 * 1024

// matMulABt is the one matmul kernel every product goes through:
// out[i,j] = Σ_p a[i,p]·bt[j,p] for a (m×k) and bt (n×k), both contiguous
// along k, with row panels of out sharded across the pool. Every output
// element is one accumulator that starts at +0 and adds its k products in
// ascending p, whichever tile or remainder loop computes it, so the result
// is bitwise identical at any parallel degree.
func matMulABt(out, a, bt *Tensor) {
	m, k, n := a.Shape[0], a.Shape[1], bt.Shape[0]
	grain := 1
	if rowFlops := k * n; rowFlops > 0 {
		grain = (matMulGrainFlops + rowFlops - 1) / rowFlops
	}
	od, ad, bd := out.Data, a.Data, bt.Data
	if Parallelism() <= 1 || m <= grain {
		// Skip parallelFor entirely: the direct call keeps the serial path
		// allocation-free (no chunk closure).
		dotRows(od, ad, bd, k, n, 0, m)
		return
	}
	parallelFor(m, grain, func(lo, hi int) { dotRows(od, ad, bd, k, n, lo, hi) })
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
