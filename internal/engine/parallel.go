package engine

import (
	"runtime"
	"sync"
)

// DefaultParallelism is the process-wide fallback for Config.Parallelism
// and the run drivers when they are left at 0: 0 means runtime.GOMAXPROCS,
// 1 forces the serial code paths everywhere, n > 1 caps each level's
// concurrency at n. The commands set it from their -par flag so a whole
// experiment sweep can be pinned without threading the knob through every
// config constructor.
var DefaultParallelism int

// ResolveParallelism resolves a Parallelism setting (usually a Config field)
// against DefaultParallelism and the machine size. The result is always ≥ 1.
func ResolveParallelism(n int) int {
	if n == 0 {
		n = DefaultParallelism
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Concurrently runs f(k) for every k in [0, n) with at most par invocations
// in flight, returning when all have finished. par <= 1 degenerates to the
// plain serial loop on the calling goroutine. Callers are responsible for
// making the f(k) mutually independent; results must be written to
// k-indexed slots (not appended) so the outcome is order-independent.
//
// Calls at every level (experiment driver, per-figure algorithm fan-out,
// replicated seeds, suite members, a synchronous baseline's gradient round)
// share one process-wide budget of GOMAXPROCS helper slots, so nesting
// never multiplies concurrency: the outermost active levels win the slots
// and saturated inner calls degrade to the serial loop instead of
// oversubscribing cores or stacking N× the live training state per level.
// Slot acquisition never blocks, so nested use cannot deadlock.
func Concurrently(n, par int, f func(k int)) {
	if par > n {
		par = n
	}
	helpers := 0
	if n > 1 && par > 1 {
		helpers = acquireSlots(par)
	}
	if helpers == 1 {
		// A single helper is strictly worse than the serial loop (the
		// caller would idle feeding it while holding a host slot).
		releaseSlots(1)
		helpers = 0
	}
	if helpers == 0 {
		for k := 0; k < n; k++ {
			f(k)
		}
		return
	}
	defer releaseSlots(helpers)
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

var (
	slotOnce  sync.Once
	hostSlots chan struct{}
)

// acquireSlots reserves up to want helper slots from the process-wide
// budget without blocking, returning how many it got (possibly 0).
func acquireSlots(want int) int {
	slotOnce.Do(func() {
		hostSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
	})
	got := 0
	for got < want {
		select {
		case hostSlots <- struct{}{}:
			got++
		default:
			return got
		}
	}
	return got
}

func releaseSlots(n int) {
	for i := 0; i < n; i++ {
		<-hostSlots
	}
}
