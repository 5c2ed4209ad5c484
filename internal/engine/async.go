package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"netmax/internal/codec"
	"netmax/internal/nn"
	"netmax/internal/simnet"
)

// AsyncBehavior parameterizes the shared asynchronous pull loop: NetMax,
// AD-PSGD, SAPS-PSGD, Hop and AD-PSGD+Monitor are all "select a peer, pull
// its model, blend" algorithms that differ only in how each pull is planned
// and what periodic control runs alongside.
type AsyncBehavior interface {
	// Plan returns worker i's pull for the iteration starting at virtual
	// time now. The engine calls it on every admitted event in time order,
	// so it is also where periodic control runs: the Network Monitor's
	// policy regeneration (Algorithm 1).
	Plan(i int, now float64, rng *rand.Rand) Pull
	// OnIterationEnd reports the measured iteration time, which behaviors
	// with a Network Monitor feed into their EMA time vectors
	// (Algorithm 2 line 16).
	OnIterationEnd(i, j int, iterSecs, now float64)
	// OnMembership reports cluster membership: whenever a crash, leave or
	// rejoin boundary of the configured FailureSchedule passes, the engine
	// calls it with the current membership vector before processing the
	// first event at or after the boundary. alive is only valid during the
	// call — behaviors keep their own copy. Hangs and link blackouts are
	// NOT membership events: a frozen process is indistinguishable from a
	// slow link, so behaviors learn about those only through failed pulls
	// and inflated iteration times.
	OnMembership(alive []bool, now float64)
}

// Pull is one worker's plan for an iteration.
type Pull struct {
	// Peer is the worker to pull from. The worker's own id means "skip
	// communication this iteration" (a policy may assign p_ii > 0); the
	// other fields are then ignored.
	Peer int
	// Coef is the coefficient c of the second-step update
	// x_i ← (1-c)·x_i + c·x_j. For NetMax c = αρ(d_ij+d_ji)/(2 p_ij)
	// (Algorithm 2 line 13); for AD-PSGD-style averaging c = 1/2.
	Coef float64
	// TwoSided applies the blend to both endpoints: x_j also moves toward
	// i's pre-blend model with the same coefficient, AD-PSGD's atomic
	// averaging [11]. A one-sided pull (NetMax's Algorithm 2) leaves the
	// peer untouched.
	TwoSided bool
	// Share is the fraction of the model the pull moves, in (0, 1]: 1 for
	// a full model, less for SAPS sparsification. It scales the bytes
	// charged and timed.
	Share float64
	// Wait holds the worker back (Hop's staleness gate): it starts no
	// iteration, and its next Plan runs at the next event of a worker that
	// is not waiting, or at the next membership boundary, whichever comes
	// first. A worker with neither left is never planned again. The other
	// fields are then ignored.
	Wait bool
}

// exchange carries out pulls. Every transferred vector round-trips through
// the codec, when there is one, so its loss lands in the trajectory. The
// buffers are reused across pulls: the event loop stays allocation-free
// under compression.
type exchange struct {
	codec     codec.Codec
	enc       []byte
	peer, own []float64
}

// compress overwrites vec in place with what the receiver decodes off the
// wire. The payload is self-produced, so a decode failure is a codec bug;
// continuing would charge compressed bytes for an uncompressed transfer. A
// non-finite vector is not a failure here: the decoder writes it whole,
// and a diverged run carries it on as it would without a codec.
func (e *exchange) compress(vec []float64) {
	if e.codec == nil {
		return
	}
	e.enc = e.codec.AppendEncode(e.enc[:0], vec)
	if err := e.codec.DecodeInto(e.enc, vec); err != nil && !errors.Is(err, codec.ErrNonFinite) {
		panic(fmt.Sprintf("engine: codec %s round-trip failed: %v", e.codec.Name(), err))
	}
}

// pull blends x toward y with p.Coef and, for a two-sided pull, y toward
// x's pre-blend model with the same coefficient. The reverse transfer goes
// through the codec as well, so both directions carry compression loss.
func (e *exchange) pull(x, y *nn.Model, p Pull) {
	if !p.TwoSided && e.codec == nil {
		// Nothing reaches y or the wire: blend from y's parameters in place.
		x.BlendModel(p.Coef, y)
		return
	}
	if e.peer == nil {
		e.peer = make([]float64, x.VectorLen())
	}
	y.CopyVector(e.peer) // x_j's freshest params
	e.compress(e.peer)
	if p.TwoSided {
		if e.own == nil {
			e.own = make([]float64, x.VectorLen())
		}
		x.CopyVector(e.own)
		e.compress(e.own)
		x.BlendVector(p.Coef, e.peer)
		y.BlendVector(p.Coef, e.own)
		return
	}
	x.BlendVector(p.Coef, e.peer)
}

// RunAsync executes the asynchronous decentralized loop under cfg with the
// given behavior, returning the aggregated result. Events are processed in
// completion order on the virtual clock; each event atomically performs one
// worker iteration (plan the pull, local gradient step, pull and blend) and
// schedules the next completion, one event at a time on the calling
// goroutine. A waiting worker starts no iteration: its event is re-queued
// at the next event of a worker that is not waiting (see Pull.Wait).
//
// The loop injects cfg.Failures: unresponsive workers' events are parked
// until rejoin (iterations in flight across a down interval are
// discarded), pulls at unresponsive peers or blacked-out links fail after
// the schedule's detection deadline without moving bytes, and
// crash/leave/rejoin boundaries are delivered to b.OnMembership before the
// first event at or past the boundary. A nil schedule runs as an empty
// one, on which every churn query answers false.
func RunAsync(cfg *Config, b AsyncBehavior, algo string) *Result {
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, algo)
	bytes := cfg.WireBytes()
	ex := exchange{codec: cfg.Codec}

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

	// Churn state.
	fs := simnet.NewFailureSchedule()
	if cfg.Failures != nil {
		fs = cfg.Failures
	}
	started := make([]float64, len(ws)) // virtual start time of each worker's in-flight iteration
	alive := make([]bool, len(ws))      // scratch membership vector
	waiting := make([]bool, len(ws))    // whether the worker's queued event is a wait's wake-up
	// nextMemb is the earliest unannounced membership boundary (+Inf when
	// none remain): an O(1) comparison per event pop instead of a schedule
	// scan.
	nextMemb := fs.NextTransition(math.Inf(-1))

	for !tr.Done() && q.Len() > 0 {
		now, i := q.Pop()
		waiting[i] = false
		// Membership boundaries (crash, leave, rejoin) that passed since
		// the previous event are announced before anything at this
		// timestamp runs, so behaviors stop selecting dead peers at once.
		if now >= nextMemb {
			fs.AliveInto(alive, now)
			b.OnMembership(alive, now)
			nextMemb = fs.NextTransition(now)
		}
		// A currently unresponsive worker is parked until it is back (its
		// in-flight iteration died with it), and a worker that crashed and
		// already rejoined mid-flight restarts fresh: the interrupted
		// iteration's accounting is discarded either way.
		if fs.Unresponsive(i, now) {
			pend[i] = pending{}
			if up, ok := fs.NextUp(i, now); ok {
				q.Push(up, i)
				started[i] = up
			}
			continue
		}
		if fs.Interrupted(i, started[i], now) {
			pend[i] = pending{}
		}
		// Flush the completed iteration's accounting. Clearing it keeps
		// a waiting worker's re-queued event from counting it again.
		if p := pend[i]; p.samples > 0 {
			tr.OnIteration(now, p.samples, p.comp, p.comm)
			pend[i] = pending{}
			if tr.Done() {
				break
			}
		}
		w := ws[i]
		pull := b.Plan(i, now, w.Rng)
		if pull.Wait {
			wake := nextMemb
			for k, t := range q.time { // empty slots hold +Inf
				if !waiting[k] {
					wake = min(wake, t)
				}
			}
			if !math.IsInf(wake, 1) {
				waiting[i] = true
				q.Push(wake, i)
			}
			continue
		}
		j := pull.Peer
		// A pull at an unresponsive peer or over a blacked-out link
		// fails: nothing is blended or transferred, and the worker
		// loses the schedule's detection deadline waiting it out. The
		// failed attempt still feeds OnIterationEnd, so adaptive
		// behaviors see the link's iteration time inflate and route
		// away — exactly how a hang is survivable at all.
		pullFailed := j != i && fs.PullFails(i, j, now)
		w.ComputeGrad() // first update (local gradients)
		w.ApplyStep()
		if j != i && !pullFailed {
			ex.pull(w.Model, ws[j].Model, pull)
		}
		moved := int64(float64(bytes) * pull.Share)
		comp := cfg.ComputeSecs(i)
		var iterSecs float64
		if pullFailed {
			// The local gradient step proceeds while the doomed pull
			// waits out the detection deadline; no bytes move.
			iterSecs = comp + fs.DetectSecs
			if cfg.Overlap {
				iterSecs = max(comp, fs.DetectSecs)
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
		pend[i] = pending{samples: w.Batch, comp: comp, comm: commCost}
		q.Push(now+iterSecs, i)
		started[i] = now
	}
	return tr.Finish()
}
