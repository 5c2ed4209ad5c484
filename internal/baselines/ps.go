package baselines

import (
	"netmax/internal/engine"
	"netmax/internal/nn"
)

// RunPSSync trains with a synchronous parameter server [6, 7]: per round,
// every worker pushes its gradient to the PS (co-located with worker 0's
// machine) and pulls the updated model back before anyone proceeds. All
// transfers of a round share the PS's network interface, so the round's
// communication time scales with the number of workers behind each link
// class — the central-bottleneck weakness of C-PSGD (Section I).
func RunPSSync(cfg *engine.Config) *engine.Result {
	ws := cfg.Workers()
	bytes := cfg.Spec.ModelBytes()

	// Link-class sharer counts: workers on the PS machine share the intra
	// fabric; remote workers share the PS NIC.
	psMachine := cfg.Net.Topo.Machine[0]
	intra, inter := 0, 0
	for _, mac := range cfg.Net.Topo.Machine {
		if mac == psMachine {
			intra++
		} else {
			inter++
		}
	}

	// PS links keep their base rate, so every round takes as long to
	// communicate.
	comm := 0.0
	for i := range ws {
		sharers := inter
		if cfg.Net.Topo.Machine[i] == psMachine {
			sharers = intra
		}
		// Push gradient + pull model: 2x the model size.
		if t := cfg.Net.PSTransferTime(i, 2*bytes, sharers); t > comm {
			comm = t
		}
	}
	step := averagedStep(cfg, ws)
	return runRounds(cfg, ws, "PS-syn", 2*int64(len(ws))*bytes, func(now float64) float64 {
		step()
		return comm
	})
}

// RunPSAsync trains with an asynchronous parameter server: each worker
// independently pushes its gradient and pulls the fresh global model, with
// no barrier. Workers near the PS iterate much faster, so the global model
// over-represents their data — the convergence weakness Fig. 14(a) shows
// under non-uniform partitioning.
func RunPSAsync(cfg *engine.Config) *engine.Result {
	ws := cfg.Workers()
	tr := engine.NewTracker(cfg, ws, "PS-asyn")
	bytes := cfg.Spec.ModelBytes()

	// The PS holds the global model, which starts as the workers' initial
	// model, and the (single, shared) optimizer state, as in Project
	// Adam-style servers.
	ps := ws[0].Model.Clone()
	// Server-side momentum would compound the (similar) gradients of all M
	// workers into an effectively M/(1-momentum) times larger step and
	// diverge; async parameter servers therefore apply updates with plain
	// SGD. This also yields the paper's Fig. 14(a) shape: PS-asyn converges,
	// but with the worst per-epoch rate.
	psOpt := nn.NewSGD(cfg.LR)
	psOpt.Momentum = 0
	grad := make([]float64, ps.VectorLen())
	global := make([]float64, ps.VectorLen())

	// Active transfer end-times approximate PS-side contention: a transfer
	// starting now shares the NIC with every still-active transfer.
	var activeEnds []float64

	var q engine.Queue
	type pending struct {
		samples    int
		comp, comm float64
	}
	pend := make([]pending, len(ws))
	for i := range ws {
		q.Push(0, i)
	}
	for !tr.Done() && q.Len() > 0 {
		now, i := q.Pop()
		if p := pend[i]; p.samples > 0 {
			tr.OnIteration(now, p.samples, p.comp, p.comm)
			if tr.Done() {
				break
			}
		}
		w := ws[i]
		w.ComputeGrad()
		w.Model.GradVector(grad)
		ps.SetGradVector(grad)
		// The Tracker decays the workers' optimizers only; step at their
		// current rate so LRDecayEpoch reaches the server.
		psOpt.LR = w.Opt.LR
		psOpt.Step(ps)
		ps.CopyVector(global)
		w.Model.SetVector(global)

		keep := activeEnds[:0]
		for _, e := range activeEnds {
			if e > now {
				keep = append(keep, e)
			}
		}
		activeEnds = keep
		sharers := len(activeEnds) + 1
		comm := cfg.Net.PSTransferTime(i, 2*bytes, sharers)
		tr.AddBytes(2 * bytes)
		iter := cfg.ComputeSecs(i) + comm
		activeEnds = append(activeEnds, now+iter)
		pend[i] = pending{samples: w.Batch, comp: cfg.ComputeSecs(i), comm: comm}
		q.Push(now+iter, i)
	}
	return tr.Finish()
}
