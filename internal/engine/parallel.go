package engine

import (
	"runtime"
	"sync"
)

// budget is the process-wide count of helper goroutines Concurrently may
// run at once, summed over every level that calls it (the experiment sweep,
// per-figure algorithm fan-out, suite members, a synchronous baseline's
// gradient round), so nesting never multiplies concurrency: the outermost
// active levels win the helpers and saturated inner calls run the serial
// loop instead of oversubscribing cores or stacking N× the live training
// state per level.
var budget struct {
	mu    sync.Mutex
	par   int // SetParallelism's setting
	inUse int
}

// SetParallelism sizes the process-wide helper budget: 0 allows
// GOMAXPROCS helpers, n > 0 allows min(n, GOMAXPROCS), so 1 makes every
// Concurrently call the serial loop. Results are identical at any
// setting. The commands call it from their -par flag.
func SetParallelism(n int) {
	budget.mu.Lock()
	budget.par = n
	budget.mu.Unlock()
}

// Concurrently runs f(k) for every k in [0, n), returning when all have
// finished. The helpers that run f come from the process-wide budget that
// SetParallelism sizes; limit caps them further for this call: 0 leaves
// only the budget, 1 (or less) is the plain serial loop on the calling
// goroutine, k > 1 allows at most k. Callers are responsible for making
// the f(k) mutually independent; results must be written to k-indexed
// slots (not appended) so the outcome is order-independent.
//
// Taking helpers never blocks, so nested use cannot deadlock; a call that
// gets fewer than two runs the serial loop, since a single helper is
// strictly worse (the caller would idle feeding it).
func Concurrently(n, limit int, f func(k int)) {
	if limit == 0 || limit > n {
		limit = n
	}
	helpers := 0
	if limit > 1 {
		helpers = takeHelpers(limit)
	}
	if helpers == 0 {
		for k := 0; k < n; k++ {
			f(k)
		}
		return
	}
	defer returnHelpers(helpers)
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer wg.Done()
			for k := range next {
				f(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}

// takeHelpers reserves up to want helpers from the budget, returning how
// many it got: 0 when fewer than two are free.
func takeHelpers(want int) int {
	size := runtime.GOMAXPROCS(0)
	budget.mu.Lock()
	defer budget.mu.Unlock()
	if budget.par > 0 && budget.par < size {
		size = budget.par
	}
	got := min(want, size-budget.inUse)
	if got < 2 {
		return 0
	}
	budget.inUse += got
	return got
}

func returnHelpers(n int) {
	budget.mu.Lock()
	budget.inUse -= n
	budget.mu.Unlock()
}
