package engine

import (
	"fmt"
	"math"
	"math/rand"
)

// AsyncBehavior parameterizes the shared asynchronous pull loop: NetMax,
// AD-PSGD, GoSGD-style gossip, SAPS-PSGD and AD-PSGD+Monitor are all
// "select a peer, pull its model, blend" algorithms that differ only in how
// peers are selected, how the pulled model is weighted, and what periodic
// control runs alongside.
type AsyncBehavior interface {
	// SelectPeer returns the peer worker i pulls from for the iteration
	// starting at virtual time now. Returning i itself means "skip
	// communication this iteration" (a policy may assign p_ii > 0).
	SelectPeer(i int, now float64, rng *rand.Rand) int
	// BlendCoef returns the coefficient c of the second-step update
	// x_i ← (1-c)·x_i + c·x_j. For NetMax c = αρ(d_ij+d_ji)/(2 p_ij)
	// (Algorithm 2 line 13); for AD-PSGD-style averaging c = 1/2.
	BlendCoef(i, j int) float64
	// OnIterationEnd reports the measured iteration time, which behaviors
	// with a Network Monitor feed into their EMA time vectors
	// (Algorithm 2 line 16).
	OnIterationEnd(i, j int, iterSecs, now float64)
	// Tick runs periodic control at virtual time now — the Network
	// Monitor's policy regeneration (Algorithm 1). No-op for static
	// behaviors.
	Tick(now float64)
}

// SymmetricBlender is an optional AsyncBehavior refinement: when Symmetric
// returns true, the blend is applied to BOTH endpoints (each moves toward
// the midpoint with the blend coefficient), matching AD-PSGD's atomic
// two-sided averaging [11]. One-sided behaviors (NetMax's Algorithm 2 pull)
// leave the peer untouched.
type SymmetricBlender interface {
	Symmetric() bool
}

// MembershipAware is an optional AsyncBehavior refinement for behaviors
// that react to cluster membership: whenever a crash, leave or rejoin
// boundary of the configured FailureSchedule passes, the engine calls
// OnMembership with the current membership vector before processing the
// first event at or after the boundary. alive is only valid during the
// call — behaviors keep their own copy. Hangs and link blackouts are NOT
// membership events: a frozen process is indistinguishable from a slow
// link, so behaviors learn about those only through failed pulls and
// inflated iteration times.
type MembershipAware interface {
	OnMembership(alive []bool, now float64)
}

// PartialTransferrer is an optional AsyncBehavior refinement for methods
// that send only part of the model per pull (DLion-style capacity-scaled
// partitions): TransferBytes maps the full model size to the bytes actually
// moved for the current iteration.
type PartialTransferrer interface {
	TransferBytes(full int64) int64
}

// RunAsync executes the asynchronous decentralized loop under cfg with the
// given behavior, returning the aggregated result. Events are processed in
// completion order on the virtual clock; each event atomically performs one
// worker iteration (select peer, snapshot its model, local gradient step,
// blend) and schedules the next completion, one event at a time on the
// calling goroutine.
//
// When cfg.Failures carries events, the loop injects them: unresponsive
// workers' events are parked until rejoin (iterations in flight across a
// down interval are discarded), pulls at unresponsive peers or blacked-out
// links fail after the schedule's detection deadline without moving bytes,
// and crash/leave/rejoin boundaries are delivered to MembershipAware
// behaviors before the first event at or past the boundary. A nil or empty
// schedule takes none of these paths and reproduces the failure-free
// trajectory bitwise.
func RunAsync(cfg *Config, b AsyncBehavior, algo string) *Result {
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, algo)
	bytes := cfg.WireBytes()
	// Compression state: every transferred vector round-trips through the
	// codec so its loss lands in the trajectory. The buffers are reused
	// across iterations — the event loop stays allocation-free under
	// compression.
	var encBuf []byte
	var ownBuf []float64
	// compress overwrites vec in place with what the receiver decodes off
	// the wire. The payload is self-produced, so a decode failure is a
	// codec bug; continuing would charge compressed bytes for an
	// uncompressed transfer.
	compress := func(vec []float64) {
		if cfg.Codec == nil {
			return
		}
		encBuf = cfg.Codec.AppendEncode(encBuf[:0], vec)
		if err := cfg.Codec.DecodeInto(encBuf, vec); err != nil {
			panic(fmt.Sprintf("engine: codec %s round-trip failed: %v", cfg.Codec.Name(), err))
		}
	}
	symmetric := false
	if sb, ok := b.(SymmetricBlender); ok {
		symmetric = sb.Symmetric()
	}

	var q Queue
	// Pending bookkeeping per worker: costs of the iteration in flight.
	type pending struct {
		samples    int
		comp, comm float64
	}
	pend := make([]pending, len(ws))
	// Kick off: every worker starts its first iteration at t=0. The first
	// pop therefore carries zero pending cost.
	for i := range ws {
		q.Push(0, i)
	}
	snapshot := make([]float64, ws[0].Model.VectorLen())

	// Churn state. An empty schedule is normalized to nil so the
	// failure-free path is literally the historical one — the bitwise
	// determinism gate compares the two.
	fs := cfg.Failures
	if fs.Empty() {
		fs = nil
	}
	var started []float64 // virtual start time of each worker's in-flight iteration
	var alive []bool      // scratch membership vector
	var membAware MembershipAware
	// nextMemb is the earliest unannounced membership boundary: an O(1)
	// comparison per event pop instead of a schedule scan.
	nextMemb, haveMemb := 0.0, false
	if fs != nil {
		started = make([]float64, len(ws))
		alive = make([]bool, len(ws))
		membAware, _ = b.(MembershipAware)
		nextMemb, haveMemb = fs.NextTransition(math.Inf(-1))
	}
	// admit decides whether worker id's completion event at time now runs
	// an iteration: a currently unresponsive worker is parked until its
	// rejoin (its in-flight iteration died with it), and a worker that
	// crashed and already rejoined mid-flight restarts fresh — the
	// interrupted iteration's accounting is discarded either way.
	admit := func(id int, now float64) bool {
		if fs == nil {
			return true
		}
		if fs.Unresponsive(id, now) {
			pend[id] = pending{}
			if up, ok := fs.NextUp(id, now); ok {
				q.Push(up, id)
				started[id] = up
			}
			return false
		}
		if fs.Interrupted(id, started[id], now) {
			pend[id] = pending{}
		}
		return true
	}

	for !tr.Done() && q.Len() > 0 {
		now, i := q.Pop()
		// Membership boundaries (crash, leave, rejoin) that passed since
		// the previous event are announced before anything at this
		// timestamp runs, so behaviors stop selecting dead peers at once.
		if fs != nil && haveMemb && now >= nextMemb {
			fs.AliveInto(alive, now)
			if membAware != nil {
				membAware.OnMembership(alive, now)
			}
			nextMemb, haveMemb = fs.NextTransition(now)
		}
		if !admit(i, now) {
			continue // the worker is down; admit parked it
		}
		// Flush the completed iteration's accounting.
		if p := pend[i]; p.samples > 0 {
			tr.OnIteration(now, p.samples, p.comp, p.comm)
			if tr.Done() {
				break
			}
		}
		b.Tick(now)
		w := ws[i]
		j := b.SelectPeer(i, now, w.Rng)
		// A pull at an unresponsive peer or over a blacked-out link
		// fails: nothing is blended or transferred, and the worker
		// loses the schedule's detection deadline waiting it out. The
		// failed attempt still feeds OnIterationEnd, so adaptive
		// behaviors see the link's iteration time inflate and route
		// away — exactly how a hang is survivable at all.
		pullFailed := fs != nil && j != i && fs.PullFails(i, j, now)
		_, samples := w.GradStep() // first update (local gradients)
		if j != i && !pullFailed {
			ws[j].Model.CopyVector(snapshot) // pull x_j (freshest params)
			compress(snapshot)
			coef := b.BlendCoef(i, j)
			if symmetric {
				// Two-sided atomic averaging: j also moves toward i's
				// (pre-blend) model with the same coefficient. The
				// reverse transfer goes through the codec as well, so
				// both directions carry compression loss.
				if ownBuf == nil {
					ownBuf = make([]float64, len(snapshot))
				}
				w.Model.CopyVector(ownBuf)
				compress(ownBuf)
				w.Model.BlendVector(coef, snapshot)
				ws[j].Model.BlendVector(coef, ownBuf)
			} else {
				w.Model.BlendVector(coef, snapshot)
			}
		}
		moved := bytes
		if pt, ok := b.(PartialTransferrer); ok {
			moved = pt.TransferBytes(bytes)
		}
		comp := cfg.ComputeSecs(i)
		var iterSecs float64
		if pullFailed {
			// The local gradient step proceeds while the doomed pull
			// waits out the detection deadline; no bytes move.
			iterSecs = comp + fs.Detect()
			if cfg.Overlap {
				iterSecs = comp
				if d := fs.Detect(); d > iterSecs {
					iterSecs = d
				}
			}
		} else {
			if j != i {
				tr.AddBytes(moved)
			}
			iterSecs = cfg.Net.IterationTime(i, j, moved, comp, now, cfg.Overlap)
		}
		b.OnIterationEnd(i, j, iterSecs, now)
		commCost := iterSecs - comp
		if commCost < 0 {
			commCost = 0
		}
		pend[i] = pending{samples: samples, comp: comp, comm: commCost}
		q.Push(now+iterSecs, i)
		if fs != nil {
			started[i] = now
		}
	}
	return tr.Finish()
}
