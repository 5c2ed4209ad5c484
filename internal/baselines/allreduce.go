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
	ring := 2 * int64(len(ws)-1) * cfg.Spec.ModelBytes()
	return runRounds(cfg, ws, "Allreduce-SGD", ring, func(now float64) float64 {
		step()
		return ringAllreduceTime(cfg, now)
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
	par := cfg.EffectiveParallelism()
	vlen := ws[0].Model.VectorLen()
	avg := make([]float64, vlen)
	grad := func(k int) { ws[k].GradOnly() }
	return func() {
		engine.Concurrently(len(ws), par, grad)
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

// ringAllreduceTime returns the duration of one ring allreduce of the model
// over workers 0..M-1 at virtual time now: 2(M-1) pipeline steps each moving
// bytes/M over the ring, bottlenecked by the slowest ring link.
func ringAllreduceTime(cfg *engine.Config, now float64) float64 {
	m := cfg.Net.Topo.M
	if m < 2 {
		return 0
	}
	bytes := cfg.Spec.ModelBytes()
	minRate := cfg.Net.Rate(0, 1%m, now)
	for i := 0; i < m; i++ {
		j := (i + 1) % m
		if r := cfg.Net.Rate(i, j, now); r < minRate {
			minRate = r
		}
	}
	chunk := float64(bytes) / float64(m)
	return 2 * float64(m-1) * chunk / minRate
}
