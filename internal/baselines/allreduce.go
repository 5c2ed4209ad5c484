package baselines

import (
	"netmax/internal/engine"
)

// RunAllreduce trains with synchronous Allreduce-SGD [8]: every round all
// workers compute gradients on their local batch, the gradients are averaged
// with a ring allreduce, and everyone applies the same update. The round
// time is the parallel compute time plus the ring time; because the ring is
// a fixed cycle over all workers, a single slow link throttles every round —
// the synchronization weakness Section I attributes to sync D-PSGD.
func RunAllreduce(cfg *engine.Config) *engine.Result {
	ws := cfg.Workers()
	step := averagedStep(cfg, ws)
	ring := make([]int, len(ws))
	for i := range ring {
		ring[i] = i
	}
	bytes := 2 * int64(len(ws)-1) * cfg.Spec.ModelBytes()
	return runRounds(cfg, ws, "Allreduce-SGD", bytes, func(now float64) float64 {
		step()
		return ringTime(cfg, ring, now)
	})
}

// runRounds is the loop of the barrier-synchronized trainers (Allreduce-SGD,
// PS-syn, D-PSGD). Each round, round updates every worker's model and
// returns the round's communication time at virtual time now; the round
// puts bytes on the network and ends, for every worker, after the slowest
// worker's compute plus that communication time.
func runRounds(cfg *engine.Config, ws []*engine.Worker, algo string, bytes int64, round func(now float64) float64) *engine.Result {
	tr := engine.NewTracker(cfg, ws, algo)
	comp := cfg.MaxComputeSecs()
	now := 0.0
	for !tr.Done() {
		comm := round(now)
		tr.AddBytes(bytes)
		now += comp + comm
		for _, w := range ws {
			tr.OnIteration(now, w.Batch, comp, comm)
		}
	}
	return tr.Finish()
}

// averagedStep returns one synchronous update shared by Allreduce-SGD and
// PS-syn: every worker computes a gradient on its next batch, and every
// worker applies the batch-size-weighted mean of those gradients. Gradients
// are computed concurrently (each worker touches only its own replica) and
// summed serially in worker order, so the floating-point result is
// identical at any parallelism.
func averagedStep(cfg *engine.Config, ws []*engine.Worker) func() {
	vlen := ws[0].Model.VectorLen()
	avg := make([]float64, vlen)
	grad := func(k int) { ws[k].ComputeGrad() }
	return func() {
		engine.Concurrently(len(ws), cfg.Parallelism, grad)
		clear(avg)
		total := 0
		for _, w := range ws {
			// Weight by batch size so segment workers contribute
			// proportionally (Section V-F).
			w.Model.AddScaledGrad(avg, float64(w.Batch))
			total += w.Batch
		}
		for i := range avg {
			avg[i] /= float64(total)
		}
		for _, w := range ws {
			w.ApplyGrad(avg)
		}
	}
}

// ringTime returns the duration of one ring allreduce of the model over
// members, in ring order, at virtual time now: 2(g-1) pipeline steps each
// moving bytes/g over the ring, bottlenecked by the slowest ring link. A
// ring of fewer than two members moves nothing.
func ringTime(cfg *engine.Config, members []int, now float64) float64 {
	g := len(members)
	if g < 2 {
		return 0
	}
	minRate := cfg.Net.Rate(members[0], members[1], now)
	for a := 0; a < g; a++ {
		if r := cfg.Net.Rate(members[a], members[(a+1)%g], now); r < minRate {
			minRate = r
		}
	}
	chunk := float64(cfg.Spec.ModelBytes()) / float64(g)
	return 2 * float64(g-1) * chunk / minRate
}
