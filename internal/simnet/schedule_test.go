package simnet

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// eagerNet is the reference for the on-demand schedules: the generators
// NewHeterogeneousPeriod and NewShuffledRates used when they built the
// whole schedule up front, and the lookup Rate did over it. The lazy
// schedules must reproduce it bitwise.
type eagerNet struct {
	base   *Network // rates and placement only
	starts []float64
	slow   []slowdown        // heterogeneous kind
	fast   []map[[2]int]bool // shuffled kind
}

func eagerHeterogeneous(topo *Topology, seed int64, horizon, period float64) *eagerNet {
	e := &eagerNet{base: NewStatic(topo)}
	rng := rand.New(rand.NewSource(seed))
	for t := 0.0; t < horizon; t += period {
		a := rng.Intn(topo.M)
		b := rng.Intn(topo.M - 1)
		if b >= a {
			b++
		}
		factor := 2 + rng.Float64()*98
		e.starts = append(e.starts, t)
		e.slow = append(e.slow, slowdown{A: a, B: b, Factor: factor})
	}
	return e
}

func eagerShuffled(topo *Topology, seed int64, horizon, period float64) *eagerNet {
	e := &eagerNet{base: &Network{Topo: topo, IntraRate: DefaultIntraRate, InterRate: DefaultInterRate / 8}}
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for i := 0; i < topo.M; i++ {
		for j := i + 1; j < topo.M; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	for t := 0.0; t < horizon; t += period {
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		fast := make(map[[2]int]bool, len(pairs))
		for _, p := range pairs[len(pairs)/3:] {
			fast[p] = true
		}
		e.starts = append(e.starts, t)
		e.fast = append(e.fast, fast)
	}
	return e
}

func (e *eagerNet) rate(i, j int, now float64) float64 {
	if i == j {
		return 0
	}
	lo, hi := 0, len(e.starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.starts[mid] <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := e.base
	if e.fast != nil && lo > 0 {
		key := [2]int{i, j}
		if j < i {
			key = [2]int{j, i}
		}
		if e.fast[lo-1][key] {
			return n.IntraRate
		}
		return n.InterRate
	}
	rate := n.InterRate
	if n.Topo.Machine[i] == n.Topo.Machine[j] {
		rate = n.IntraRate
	}
	if e.slow != nil && lo > 0 {
		if s := e.slow[lo-1]; (s.A == i && s.B == j) || (s.A == j && s.B == i) {
			rate /= s.Factor
		}
	}
	return rate
}

type scheduleCase struct {
	name    string
	lazy    func() *Network
	eager   *eagerNet
	horizon float64
	period  float64
}

func scheduleCases() []scheduleCase {
	topo := PaperCluster(8)
	var cases []scheduleCase
	for _, c := range []struct {
		seed            int64
		horizon, period float64
	}{
		{1, 1800, SlowLinkPeriod},
		{2, 50, 0.1}, // accumulated starts drift from k*0.1
		{3, 100, 6},
		{4, 77.7, 7.3}, // horizon not a multiple of the period
		{5, 0, 6},      // no entries at all
	} {
		cases = append(cases,
			scheduleCase{"heterogeneous", func() *Network { return NewHeterogeneousPeriod(topo, c.seed, c.horizon, c.period) },
				eagerHeterogeneous(topo, c.seed, c.horizon, c.period), c.horizon, c.period},
			scheduleCase{"shuffled", func() *Network { return NewShuffledRates(topo, c.seed, c.horizon, c.period) },
				eagerShuffled(topo, c.seed, c.horizon, c.period), c.horizon, c.period})
	}
	return cases
}

// queryTimes returns the times a schedule is probed at, in a non-monotone
// order: every accumulated start time, k*period where that rounds
// differently, just either side of each start, random times across the
// horizon, and times before the first entry and past the horizon.
func queryTimes(c scheduleCase, rng *rand.Rand) []float64 {
	ts := []float64{-1, 0, c.horizon, c.horizon + c.period, 10 * c.horizon, 1e12}
	for k, s := range c.eager.starts {
		ts = append(ts, s, s-1e-9, s+1e-9, float64(k)*c.period)
	}
	for k := 0; k < 200; k++ {
		ts = append(ts, (rng.Float64()*1.2-0.1)*c.horizon)
	}
	rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
	return ts
}

func TestLazyScheduleMatchesEagerBitwise(t *testing.T) {
	drift := false
	for _, c := range scheduleCases() {
		for k, s := range c.eager.starts {
			drift = drift || s != float64(k)*c.period
		}
		rng := rand.New(rand.NewSource(int64(len(c.eager.starts))))
		times := queryTimes(c, rng)
		// One network probed out of order from the start, one probed in
		// ascending order: the drawn prefix differs, the rates must not.
		shuffledOrder, ascending := c.lazy(), c.lazy()
		for pass, net := range []*Network{shuffledOrder, ascending} {
			ts := times
			if pass == 1 {
				ts = append([]float64(nil), times...)
				sort.Float64s(ts)
			}
			for _, now := range ts {
				for i := 0; i < 8; i++ {
					for j := 0; j < 8; j++ {
						if got, want := net.Rate(i, j, now), c.eager.rate(i, j, now); got != want {
							t.Fatalf("%s (horizon %v, period %v): Rate(%d, %d, %v) = %v, eager schedule gives %v",
								c.name, c.horizon, c.period, i, j, now, got, want)
						}
					}
				}
			}
		}
	}
	if !drift {
		t.Fatal("no case has a start time that differs from k*period; the accumulation check is vacuous")
	}
}

// slowdownCount draws n's slow-link schedule out to its horizon and
// returns the number of slowdown events it holds (0 without one).
func slowdownCount(n *Network) int {
	if n.slow == nil {
		return 0
	}
	s := n.slow
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drawThrough(s.horizon)
	return len(s.drawn)
}

func TestSlowdownCountMatchesEager(t *testing.T) {
	for _, c := range scheduleCases() {
		if c.name != "heterogeneous" {
			continue
		}
		net := c.lazy()
		net.Rate(0, 1, c.horizon/2) // a partly drawn schedule still counts to the horizon
		if got, want := slowdownCount(net), len(c.eager.starts); got != want {
			t.Fatalf("horizon %v, period %v: slowdownCount = %d, eager schedule has %d", c.horizon, c.period, got, want)
		}
	}
}

// TestLazyScheduleConcurrentRate shares one network between goroutines
// that probe it at independent random times; run under -race it checks
// that drawing the schedule is synchronized, and every answer must still
// match the eager schedule.
func TestLazyScheduleConcurrentRate(t *testing.T) {
	for _, c := range scheduleCases() {
		net := c.lazy()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for k := 0; k < 300; k++ {
					now := rng.Float64() * 1.1 * c.horizon
					i, j := rng.Intn(8), rng.Intn(8)
					if got, want := net.Rate(i, j, now), c.eager.rate(i, j, now); got != want {
						t.Errorf("%s: concurrent Rate(%d, %d, %v) = %v, want %v", c.name, i, j, now, got, want)
						return
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
}
