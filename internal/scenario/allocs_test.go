package scenario

import (
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"

	"netmax/internal/engine"
)

// threadProfile counts the OS threads the runtime has started.
var threadProfile = pprof.Lookup("threadcreate")

// regenAllocs is what one policy regeneration allocates: Generate's
// allocations, pinned by internal/policy's
// TestGenerateAllocationsIndependentOfGrid. The monitor's own buffers are
// reused.
const regenAllocs = 7

// regrowths returns how many times a slice of T that append grows one
// element at a time reallocates while its length goes from n1 to n2.
func regrowths[T any](n1, n2 int) int {
	var s []T
	var zero T
	count := 0
	for n := 0; n < n2; n++ {
		if n >= n1 && len(s) == cap(s) {
			count++
		}
		s = append(s, zero)
	}
	return count
}

// slowdown has the layout of the entries of the heterogeneous network's
// slow-link schedule.
type slowdown struct {
	a, b   int
	factor float64
}

// timed has the layout of a drawn schedule entry: its start time and the
// entry.
type timed[T any] struct {
	start float64
	entry T
}

// scheduleRegrowths is every regrowth of a network's lazily drawn schedule
// while it draws its first drawn entries on the paper's 8-worker cluster:
// the slice of timed entries, and for the shuffled network the word slice
// its fast-link bitsets (one 8×8-bit word per entry) are carved from.
func scheduleRegrowths(kind string, drawn int) int {
	if kind == "shuffled" {
		const words = (8*8 + 63) / 64
		return regrowths[timed[[]uint64]](0, drawn) + regrowths[uint64](0, drawn*words)
	}
	return regrowths[timed[slowdown]](0, drawn)
}

// TestEngineIterationsAllocateNothing runs every engine kind, and NetMax
// through crashes, a rejoin and a leave, on the paper's 8-worker cluster
// for E and 2E epochs at parallelism 1. It fails if the longer run
// allocates more than what must grow with a run's length:
//   - regenAllocs per monitor period the longer run spans beyond the
//     shorter one, and per membership change there (each forces a
//     regeneration);
//   - the loss curve's regrowths;
//   - every regrowth of the network's schedule (the heterogeneous
//     network's slow link, or the shuffled network's fast-link sets) out
//     to the longer run's end. The schedule is drawn lazily, one entry
//     per period_secs of virtual time, and how far the shorter run drew
//     it is not known: a run's last rate query can come well before its
//     last event.
//
// Everything else a run allocates is set up once, so an allocation per
// iteration or per round anywhere in a runner fails the test.
func TestEngineIterationsAllocateNothing(t *testing.T) {
	const epochs = 2
	churn := &FailureSpec{Events: []FailureEvent{
		{Kind: "crash", Worker: 1, At: 2, Rejoin: 4},
		{Kind: "crash", Worker: 5, At: 8, Rejoin: 10},
		{Kind: "leave", Worker: 6, At: 11},
	}}
	type arm struct {
		name, kind string
		failures   *FailureSpec
		network    *NetworkSpec
	}
	var arms []arm
	for _, a := range algorithms {
		arms = append(arms, arm{a.kind, a.kind, nil, nil})
	}
	// The shuffled arm re-draws its fast links every half second, so the
	// longer run draws about 40 sets more than the shorter one: a set that
	// allocates per draw shows above the allowance.
	arms = append(arms, arm{"netmax-churn", "netmax", churn, nil},
		arm{"netmax-shuffled", "netmax", nil, &NetworkSpec{Kind: "shuffled", PeriodSecs: 0.5}})
	for _, c := range arms {
		t.Run(c.name, func(t *testing.T) {
			// measure runs a fresh run of the given length and returns
			// its Mallocs and whether the runtime started an OS thread
			// during it.
			measure := func(epochs int) (mallocs uint64, newThread bool, res *engine.Result, p *prepared) {
				m := &Manifest{
					Name: "allocs-" + c.name, Algorithm: c.kind, Model: "ResNet18", Dataset: "CIFAR10",
					Workers: 8, Epochs: epochs, Parallelism: 1, Failures: c.failures, Network: c.network,
				}
				p, err := m.prepare()
				if err != nil {
					t.Fatal(err)
				}
				cfg, runner := p.engine()
				var before, after runtime.MemStats
				runtime.GC()
				// A collection that starts mid-run starts its workers,
				// which allocate and would count as the run's. With the
				// collector off until the run ends, it starts none.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				threads := threadProfile.Count()
				runtime.ReadMemStats(&before)
				res = runner(cfg)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, threadProfile.Count() != threads, res, p
			}
			// run measures a run whose Mallocs are its own allocations: a
			// busy machine can make the scheduler start an OS thread
			// mid-run, whose runtime structures allocate too, so a run
			// during which one started is measured again.
			run := func(epochs int) (mallocs uint64, res *engine.Result, p *prepared) {
				for try := 1; ; try++ {
					mallocs, newThread, res, p := measure(epochs)
					if !newThread || try == 5 {
						return mallocs, res, p
					}
					t.Logf("the runtime started an OS thread during a %d-epoch run (%d mallocs); measuring again", epochs, mallocs)
				}
			}
			run(epochs) // first-use set-up anywhere in the process
			short, r1, _ := run(epochs)
			long, r2, p := run(2 * epochs)
			t1, t2 := r1.TotalTime, r2.TotalTime

			regens := 0
			if p.algo.netmax {
				regens = int((t2-t1)/p.opts.TsSecs) + 1
			}
			if fs := p.failures; fs != nil {
				for at := fs.NextTransition(t1); at <= t2; at = fs.NextTransition(at) {
					regens++
				}
			}
			// Entries start at 0, period, 2·period, ... by repeated addition,
			// which may round one more start under t2.
			drawn := int(t2/p.r.Network.PeriodSecs) + 2
			allow := int64(regenAllocs*regens +
				regrowths[engine.Point](len(r1.Curve), len(r2.Curve)) +
				scheduleRegrowths(p.r.Network.Kind, drawn))

			extra, steps := int64(long)-int64(short), r2.GlobalSteps-r1.GlobalSteps
			t.Logf("mallocs: %d in %d steps (%.1f s), %d in %d steps (%.1f s); %.3f per extra step, allowance %d",
				short, r1.GlobalSteps, t1, long, r2.GlobalSteps, t2, float64(extra)/float64(steps), allow)
			if extra > allow {
				t.Fatalf("%d more allocations for %d more steps, allowance %d", extra, steps, allow)
			}
		})
	}
}
