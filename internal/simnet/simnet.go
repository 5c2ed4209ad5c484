// Package simnet models the heterogeneous, dynamic networks of the paper's
// evaluation on a virtual clock.
//
// The paper's testbed is an 18-server multi-tenant cluster on 1000 Mbps
// Ethernet where one link at a time is artificially slowed by 2-100x, with
// the slowed link moving every five minutes (Section V-A), plus a
// homogeneous single-server 10 Gbps virtual-switch setting and a six-region
// WAN setting (Appendix G). None of that hardware is available here, so this
// package reproduces the *timing structure*: a machine-placement topology
// gives every node pair a base transfer rate (fast intra-machine, slow
// inter-machine), a deterministic slowdown schedule moves a random slow link
// over time, and TransferTime converts (bytes, link, virtual time) into
// seconds. All timing figures in the evaluation derive from these values.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
)

// Topology places M worker nodes onto physical machines and fixes the
// communication graph d[i][m].
type Topology struct {
	M       int
	Machine []int    // Machine[i] = machine hosting node i
	Adj     [][]bool // Adj[i][m] = true if i and m are neighbors (d_{i,m}=1)
}

// FullyConnected returns an all-pairs adjacency for m nodes (no self loops).
func FullyConnected(m int) [][]bool {
	adj := make([][]bool, m)
	for i := range adj {
		adj[i] = make([]bool, m)
		for j := range adj[i] {
			adj[i][j] = i != j
		}
	}
	return adj
}

// Ring returns a cycle adjacency for m nodes.
func Ring(m int) [][]bool {
	adj := make([][]bool, m)
	for i := range adj {
		adj[i] = make([]bool, m)
	}
	for i := 0; i < m; i++ {
		j := (i + 1) % m
		adj[i][j] = true
		adj[j][i] = true
	}
	return adj
}

// Cluster builds the paper's placement: nodesPerMachine[k] workers on
// machine k, fully connected graph. The paper runs 4, 8 and 16 workers
// across 2, 3 and 4 servers respectively.
func Cluster(nodesPerMachine []int) *Topology {
	var machine []int
	for k, n := range nodesPerMachine {
		for i := 0; i < n; i++ {
			machine = append(machine, k)
		}
	}
	m := len(machine)
	return &Topology{M: m, Machine: machine, Adj: FullyConnected(m)}
}

// PaperCluster returns the placement used in Section V-A for the given
// worker count: 4 workers on 2 servers, 8 on 3, 16 on 4. Other counts are
// spread over ceil(m/4) servers.
func PaperCluster(workers int) *Topology {
	switch workers {
	case 4:
		return Cluster([]int{2, 2})
	case 8:
		return Cluster([]int{3, 3, 2})
	case 16:
		return Cluster([]int{4, 4, 4, 4})
	default:
		var per []int
		left := workers
		for left > 0 {
			n := 4
			if left < 4 {
				n = left
			}
			per = append(per, n)
			left -= n
		}
		return Cluster(per)
	}
}

// SingleMachine returns the homogeneous placement: all m workers on one
// server connected by the 10 Gbps virtual switch.
func SingleMachine(m int) *Topology {
	return Cluster([]int{m})
}

// slowdown is one entry of the dynamic schedule: link (A,B) is slowed by
// Factor.
type slowdown struct {
	A, B   int
	Factor float64
}

// schedule is a periodic sequence of entries, one starting every period
// seconds from time 0 up to (not including) horizon, drawn on demand: an
// entry is drawn only once a query reaches its start time. Entries are
// drawn in start order from one RNG stream, so the schedule is the same one
// an eager loop over the whole horizon would build, while a run pays only
// for the stretch of virtual time it reaches. The mutex guards the drawn
// prefix and the RNG, so one Network may serve concurrent runs.
type schedule[T any] struct {
	mu      sync.Mutex
	period  float64
	horizon float64
	next    float64  // start of the first undrawn entry
	draw    func() T // draws the next entry from the schedule's RNG
	drawn   []timed[T]
}

// timed is one drawn entry of a schedule and the time it starts.
type timed[T any] struct {
	start float64
	entry T
}

func newSchedule[T any](horizon, period float64, draw func() T) *schedule[T] {
	if !(period > 0) {
		panic(fmt.Sprintf("simnet: schedule period %v must be positive", period))
	}
	return &schedule[T]{period: period, horizon: horizon, draw: draw}
}

// drawThrough draws every entry that starts at or before now. Start times
// accumulate by repeated addition, exactly as an eager t += period loop
// does; k*period would round differently.
func (s *schedule[T]) drawThrough(now float64) {
	for s.next < s.horizon && s.next <= now {
		s.drawn = append(s.drawn, timed[T]{s.next, s.draw()})
		s.next += s.period
	}
}

// at returns the entry in force at virtual time now: the latest one that
// starts at or before now. ok is false before the first entry starts or
// when the horizon admits no entry.
func (s *schedule[T]) at(now float64) (e T, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drawThrough(now)
	lo, hi := 0, len(s.drawn)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.drawn[mid].start <= now {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return e, false
	}
	return s.drawn[lo-1].entry, true
}

// Network converts (link, bytes, virtual time) into transfer seconds.
type Network struct {
	Topo *Topology

	// IntraRate and InterRate are effective transfer rates in bytes/second
	// for same-machine and cross-machine links.
	IntraRate float64
	InterRate float64

	// slow is the moving slow link of NewHeterogeneousPeriod: at any time
	// exactly one (or zero) link is slowed.
	slow *schedule[slowdown]

	// rateOverride, if non-nil, gives a full per-pair rate matrix
	// (bytes/sec) and takes precedence over Intra/InterRate. Used by the
	// cross-region WAN setting.
	rateOverride [][]float64

	// shuffles, if non-nil, is the time-varying set of fast links of
	// NewShuffledRates, one bitset per period; once its first period
	// starts it replaces the machine-placement rate rule.
	shuffles *schedule[[]uint64]
}

// Paper-calibrated defaults (see nn zoo comment): intra-machine GPU-to-GPU
// effective rate ~600 MB/s, inter-machine 1000 Mbps Ethernet with protocol
// overhead ~150 MB/s burst when idle (the slowdown schedule degrades it
// further), homogeneous 10 Gbps virtual switch ~1.25 GB/s.
const (
	DefaultIntraRate = 600e6
	DefaultInterRate = 150e6
	VSwitchRate      = 1250e6
	// SlowLinkPeriod is how often the slowed link moves (Section V-A:
	// "change the slow link every 5 minutes").
	SlowLinkPeriod = 300.0
	// TimeScale is the evaluation's time compression: simulated epochs run
	// about 50x faster than the paper's GPU epochs, so every
	// wall-clock-periodic mechanism of the paper (the monitor period Ts,
	// the slow-link period) is divided by it to keep the dynamics per
	// epoch equal.
	TimeScale = 50
)

// NewHeterogeneousPeriod builds the multi-tenant-cluster network of
// Section V-A: cluster placement rates plus a dynamic 2-100x slowdown of one
// random link that moves every period seconds, out to the given horizon.
// The paper moves the slow link every SlowLinkPeriod (300s) against epochs
// of ~100s; simulations with faster epochs scale the period down to keep
// the dynamics-per-epoch ratio. Deterministic in seed. The schedule is
// drawn as Rate queries reach it, so a long horizon costs nothing up front.
func NewHeterogeneousPeriod(topo *Topology, seed int64, horizon, period float64) *Network {
	rng := rand.New(rand.NewSource(seed))
	draw := func() slowdown {
		a := rng.Intn(topo.M)
		b := rng.Intn(topo.M - 1)
		if b >= a {
			b++
		}
		factor := 2 + float64(rng.Float64()*98) // 2x .. 100x
		return slowdown{A: a, B: b, Factor: factor}
	}
	return &Network{Topo: topo, IntraRate: DefaultIntraRate, InterRate: DefaultInterRate,
		slow: newSchedule(horizon, period, draw)}
}

// NewHomogeneous builds the single-server 10 Gbps virtual-switch network of
// Section V-A (no slowdowns).
func NewHomogeneous(topo *Topology) *Network {
	return &Network{Topo: topo, IntraRate: VSwitchRate, InterRate: VSwitchRate}
}

// NewStatic builds a network with the cluster rates and no dynamics; useful
// for tests and for SAPS-style static analyses.
func NewStatic(topo *Topology) *Network {
	return &Network{Topo: topo, IntraRate: DefaultIntraRate, InterRate: DefaultInterRate}
}

// Regions of the paper's Appendix G cross-cloud experiment, in order.
var Regions = []string{"USWest", "USEast", "Ireland", "Mumbai", "Singapore", "Tokyo"}

// NewCrossRegion builds the six-region WAN of Appendix G. Rates follow the
// geographic structure the paper cites ([5]): nearby region pairs are up to
// ~12x faster than distant ones.
func NewCrossRegion() *Network {
	m := len(Regions)
	topo := &Topology{M: m, Machine: make([]int, m), Adj: FullyConnected(m)}
	for i := range topo.Machine {
		topo.Machine[i] = i // every region is its own "machine"
	}
	// Effective pairwise rates in MB/s; symmetric. Close pairs (US-US,
	// Mumbai-Singapore-Tokyo) fast; transpacific/transcontinental slow.
	mb := [][]float64{
		//            USW  USE  Irl  Mum  Sin  Tok
		{0, 60, 25, 10, 12, 30}, // USWest
		{60, 0, 40, 12, 10, 15}, // USEast
		{25, 40, 0, 20, 15, 10}, // Ireland
		{10, 12, 20, 0, 45, 25}, // Mumbai
		{12, 10, 15, 45, 0, 60}, // Singapore
		{30, 15, 10, 25, 60, 0}, // Tokyo
	}
	rates := make([][]float64, m)
	for i := range rates {
		rates[i] = make([]float64, m)
		for j := range rates[i] {
			rates[i][j] = mb[i][j] * 1e6
		}
	}
	return &Network{Topo: topo, rateOverride: rates}
}

// Rate returns the effective transfer rate in bytes/second between nodes i
// and j at virtual time now.
func (n *Network) Rate(i, j int, now float64) float64 {
	if i == j {
		return 0 // self transfers are free; callers must not divide by this
	}
	if n.rateOverride != nil {
		return n.rateOverride[i][j]
	}
	if n.shuffles != nil {
		if fast, ok := n.shuffles.at(now); ok {
			k := min(i, j)*n.Topo.M + max(i, j)
			if fast[k/64]&(1<<(k%64)) != 0 {
				return n.IntraRate
			}
			return n.InterRate
		}
	}
	rate := n.InterRate
	if n.Topo.Machine[i] == n.Topo.Machine[j] {
		rate = n.IntraRate
	}
	if n.slow != nil {
		if s, ok := n.slow.at(now); ok && ((s.A == i && s.B == j) || (s.A == j && s.B == i)) {
			rate /= s.Factor
		}
	}
	return rate
}

// TransferTime returns the seconds needed to move bytes between i and j
// starting at virtual time now. Self transfers take zero time.
func (n *Network) TransferTime(i, j int, bytes int64, now float64) float64 {
	if i == j {
		return 0
	}
	rate := n.Rate(i, j, now)
	if rate <= 0 {
		panic(fmt.Sprintf("simnet: zero rate between %d and %d", i, j))
	}
	return float64(bytes) / rate
}

// IterationTime returns the duration of one local iteration of node i that
// pulls a model of the given size from node j, per Section II-B:
// t_{i,j} = max(C_i, N_{i,j}) when computation and communication overlap,
// or C_i + N_{i,j} when serialized (the fig7 ablation).
func (n *Network) IterationTime(i, j int, bytes int64, computeSecs, now float64, overlap bool) float64 {
	nt := n.TransferTime(i, j, bytes, now)
	if overlap {
		if computeSecs > nt {
			return computeSecs
		}
		return nt
	}
	return computeSecs + nt
}

// NewShuffledRates builds the Fig. 2 scenario directly: which links are
// congested changes over time (not merely one slowed link). Each period a
// random third of the link pairs is congested (8x below the inter-machine
// rate, inside the paper's 2-100x slowdown range) while the rest run at the
// intra-machine rate. Static-subgraph methods (SAPS-PSGD) keep using links
// that were fast at t=0 and degrade; adaptive methods re-measure. Like the
// slow link of NewHeterogeneousPeriod, periods are drawn as Rate queries
// reach them.
func NewShuffledRates(topo *Topology, seed int64, horizon, period float64) *Network {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int
	for i := 0; i < topo.M; i++ {
		for j := i + 1; j < topo.M; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	// Each period's fast set is an M×M bitset, bit i·M+j set for a fast
	// pair i < j, carved from one growing word slice. A drawn set is never
	// written again, so Rate may read it outside the schedule's lock while
	// a later draw appends: the append writes only words past it, or
	// copies them to a new array and leaves it in place.
	words := (topo.M*topo.M + 63) / 64
	var bits []uint64
	draw := func() []uint64 {
		rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		from := len(bits)
		for range words {
			bits = append(bits, 0)
		}
		fast := bits[from:len(bits):len(bits)]
		for _, p := range pairs[len(pairs)/3:] {
			k := p[0]*topo.M + p[1]
			fast[k/64] |= 1 << (k % 64)
		}
		return fast
	}
	return &Network{Topo: topo, IntraRate: DefaultIntraRate, InterRate: DefaultInterRate / 8,
		shuffles: newSchedule(horizon, period, draw)}
}

// PSRate returns the effective rate between worker i and a parameter server
// co-located with worker 0's machine (Section V-G assigns the PS to one GPU
// server). Workers on the PS machine use the intra-machine rate; the
// dynamic slowdown schedule covers only worker-worker links, so PS links
// keep their base rate.
func (n *Network) PSRate(i int) float64 {
	if n.rateOverride != nil {
		if i == 0 {
			// The PS shares region 0; local exchange runs at the fastest
			// WAN rate in the matrix as a stand-in for LAN speed.
			best := 0.0
			for j, r := range n.rateOverride[0] {
				if j != 0 && r > best {
					best = r
				}
			}
			return best * 4
		}
		return n.rateOverride[i][0]
	}
	if n.Topo.Machine[i] == n.Topo.Machine[0] {
		return n.IntraRate
	}
	return n.InterRate
}

// PSTransferTime returns the seconds to move bytes between worker i and the
// parameter server, given sharers concurrent transfers splitting the link.
func (n *Network) PSTransferTime(i int, bytes int64, sharers int) float64 {
	if sharers < 1 {
		sharers = 1
	}
	return float64(bytes) * float64(sharers) / n.PSRate(i)
}
