// Package engine runs decentralized training algorithms on a virtual clock.
//
// The paper evaluates on a real cluster; here every algorithm is executed as
// a deterministic discrete-event simulation: worker iterations complete in
// order of virtual time, and all timing comes from internal/simnet. The
// gradient work is real (internal/nn on the synthetic datasets), so loss
// curves are genuine SGD trajectories — only the clock is simulated.
package engine

import (
	"math"
	"math/rand"

	"netmax/internal/codec"
	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/simnet"
	"netmax/internal/tensor"
)

// Config describes one training run.
type Config struct {
	Spec nn.ModelSpec
	// Part provides each worker's shard; Part.Segments scales batch sizes
	// under the paper's non-uniform setting (batch = Batch x segments).
	Part *data.Partition
	// Eval is the dataset used for the global-loss curve (a train subset).
	Eval *data.Dataset
	// Test is used for final accuracy.
	Test *data.Dataset
	Net  *simnet.Network
	// LR is the SGD learning rate α (paper default 0.1).
	LR float64
	// Batch is the per-segment batch size (paper: 128 uniform, 64 per
	// segment in Section V-F, 32 non-IID).
	Batch int
	// Epochs is the number of passes over the union of shards.
	Epochs int
	// Seed controls model init and all stochastic choices.
	Seed int64
	// Overlap enables the compute/communication overlap of Algorithm 2
	// (true everywhere except the fig7 serial ablation).
	Overlap bool
	// LRDecayEpoch, if positive, divides the learning rate by 10 once that
	// epoch completes (the paper's step decay).
	LRDecayEpoch int
	// ComputeScale, if non-nil, multiplies worker i's gradient-computation
	// time by ComputeScale[i] — compute heterogeneity (stragglers), the
	// resource dimension the paper's related work (Prague, Hop) targets.
	// Nil means every worker computes at the model's nominal speed.
	ComputeScale []float64
	// Parallelism bounds how many workers' gradients a synchronous round
	// of Allreduce-SGD, PS-syn or D-PSGD computes concurrently on the host:
	// 0 leaves it to the process budget (SetParallelism), 1 is the serial
	// loop, n > 1 allows at most n concurrent gradients. Every other
	// algorithm steps one worker at a time and never reads it. Every
	// setting produces bitwise-identical results: the round's reductions
	// run serially in worker order afterwards.
	Parallelism int
	// Codec, when non-nil, makes the asynchronous pull loop
	// compression-aware: pulled model snapshots round-trip through the
	// codec (so quantization loss shows up in the training
	// trajectory) and the simnet bandwidth model is charged the codec's
	// encoded size for the paper model instead of the dense
	// Spec.ModelBytes. Nil reproduces the uncompressed simulation exactly.
	Codec codec.Codec
	// Failures injects the schedule's churn into the asynchronous loop:
	// crashed/hung workers stop iterating (in-flight iterations are
	// discarded), pulls at unresponsive peers or blacked-out links fail
	// after the schedule's detection deadline, and crash/leave/rejoin
	// boundaries reach the behavior's OnMembership. Nil runs an empty
	// schedule, which injects nothing.
	Failures *simnet.FailureSchedule
}

// WireBytes returns the per-pull traffic the bandwidth model charges: the
// codec's encoded size for the paper model when a codec is configured,
// otherwise the dense Spec.ModelBytes.
func (c *Config) WireBytes() int64 {
	if c.Codec != nil {
		return c.Codec.WireBytes(int(c.Spec.RealParams))
	}
	return c.Spec.ModelBytes()
}

// ComputeSecs returns worker i's per-iteration gradient time under the
// configured compute heterogeneity.
func (c *Config) ComputeSecs(i int) float64 {
	s := c.Spec.ComputeSecs
	if c.ComputeScale != nil {
		s *= c.ComputeScale[i]
	}
	return s
}

// MaxComputeSecs returns the slowest worker's gradient time: the round
// compute cost of barrier-synchronized algorithms.
func (c *Config) MaxComputeSecs() float64 {
	if c.ComputeScale == nil {
		return c.Spec.ComputeSecs
	}
	maxScale := 0.0
	for _, s := range c.ComputeScale {
		if s > maxScale {
			maxScale = s
		}
	}
	if maxScale < 1e-12 {
		return c.Spec.ComputeSecs
	}
	return c.Spec.ComputeSecs * maxScale
}

// Workers instantiates the worker pool: identical initial models (one
// model built from the seed, then cloned), per-worker RNG streams,
// shard-proportional batch sizes.
func (c *Config) Workers() []*Worker {
	m := len(c.Part.Shards)
	ws := make([]*Worker, m)
	initial := c.Spec.Build(c.Seed, c.Part.Shards[0].Dim(), c.Part.Shards[0].Classes)
	for i := 0; i < m; i++ {
		batch := c.Batch * c.Part.Segments[i]
		if batch > c.Part.Shards[i].Len() {
			batch = c.Part.Shards[i].Len()
		}
		model := initial
		if i > 0 {
			model = initial.Clone()
		}
		ws[i] = &Worker{
			Model: model,
			Opt:   nn.NewSGD(c.LR),
			Shard: c.Part.Shards[i],
			Batch: batch,
			Rng:   rand.New(rand.NewSource(c.Seed*1000 + int64(i))),
		}
	}
	return ws
}

// Worker is one training replica: the run's first model or a clone of it
// (see Config.Workers), with its own optimizer, shard, batch cursor and
// RNG stream.
type Worker struct {
	Model  *nn.Model
	Opt    *nn.SGD
	Shard  *data.Dataset
	Batch  int
	Rng    *rand.Rand
	cursor int

	// x and labels hold the batch ComputeGrad last drew: a view of the
	// shard's rows and labels when the batch does not wrap past the
	// shard's end, or buf and bufLabels, a copy, when it does. The model
	// only reads them. The tensors are held by value, so a batch costs no
	// header allocation.
	x         tensor.Tensor
	labels    []int
	buf       tensor.Tensor
	bufLabels []int
}

// ComputeGrad draws the worker's next batch and advances its cursor, runs
// forward+backward on it, leaving the gradients in the model's gradient
// vector, and returns the handle of the batch loss, which no step computes
// unless its Item is read. A batch that does not wrap past the end of the
// shard is a view of the shard's rows; one that wraps is copied into
// buffers the worker owns. It touches only this worker's replica, so
// distinct workers' ComputeGrad calls are safe to run concurrently.
func (w *Worker) ComputeGrad() nn.Loss {
	start, end := w.cursor, w.cursor+w.Batch
	if len(w.bufLabels) != w.Batch {
		// The copy's buffers come with the first batch, wrapped or not,
		// so that a run allocates the same whenever its first wrap falls.
		w.buf, w.bufLabels = *tensor.New(w.Batch, w.Shard.Dim()), make([]int, w.Batch)
	}
	if end <= w.Shard.Len() {
		w.x, w.labels = w.Shard.X.RowView(start, end), w.Shard.Labels[start:end]
	} else {
		w.Shard.BatchInto(&w.buf, w.bufLabels, start)
		w.x, w.labels = w.buf, w.bufLabels
	}
	w.cursor = end % w.Shard.Len()
	l := w.Model.Loss(&w.x, w.labels)
	l.Backward()
	return l
}

// ApplyStep applies the optimizer to the gradients left by ComputeGrad
// (Algorithm 2 line 11: first update).
func (w *Worker) ApplyStep() { w.Opt.Step(w.Model) }

// ApplyGrad runs the worker's optimizer against the gradient vector g
// instead of the locally computed one.
func (w *Worker) ApplyGrad(g []float64) {
	w.Model.SetGradVector(g)
	w.Opt.Step(w.Model)
}

// Point is one sample of a training curve.
type Point struct {
	Time  float64 // virtual seconds since training start
	Epoch float64 // fractional epochs completed
	Value float64 // metric (loss or accuracy)
}

// Result aggregates everything the evaluation figures need from one run.
// The json tags name the fields of a run's result.json.
type Result struct {
	Algo string `json:"algo"`
	// Loss curve sampled at (fractional) epoch boundaries.
	Curve []Point `json:"curve"`
	// FinalLoss is the last curve value: the averaged model's loss on
	// Config.Eval, a training subset (a manifest's first 400 training
	// rows). live.Stats.FinalLoss is a loss on the test set instead.
	FinalLoss float64 `json:"final_loss"`
	// FinalAccuracy on the held-out test set, of the averaged model.
	FinalAccuracy float64 `json:"final_accuracy"`
	// TotalTime is the virtual wall-clock of the full run.
	TotalTime float64 `json:"total_time_seconds"`
	// GlobalSteps counts worker iterations across the cluster.
	GlobalSteps int `json:"global_steps"`
	// CompSecs and CommSecs decompose worker busy time per Section V-B:
	// per iteration, computation contributes C and communication the
	// non-overlapped remainder (max(0, N-C) when overlapped, N serial).
	CompSecs float64 `json:"comp_seconds"`
	CommSecs float64 `json:"comm_seconds"`
	// BytesSent is the total traffic the algorithm put on the network.
	BytesSent int64 `json:"bytes_sent"`
	// Epochs actually completed.
	Epochs int `json:"epochs"`
}

// AvgEpochTime returns TotalTime / Epochs.
func (r *Result) AvgEpochTime() float64 {
	if r.Epochs == 0 {
		return 0
	}
	return r.TotalTime / float64(r.Epochs)
}

// CompCostPerEpoch and CommCostPerEpoch are the Fig. 5/6 bar components:
// average per-worker-epoch time attributable to computation/communication.
func (r *Result) CompCostPerEpoch(workers int) float64 {
	if r.Epochs == 0 || workers == 0 {
		return 0
	}
	return r.CompSecs / float64(r.Epochs) / float64(workers)
}

// CommCostPerEpoch is the communication counterpart of CompCostPerEpoch.
func (r *Result) CommCostPerEpoch(workers int) float64 {
	if r.Epochs == 0 || workers == 0 {
		return 0
	}
	return r.CommSecs / float64(r.Epochs) / float64(workers)
}

// TimeToLoss returns the earliest virtual time at which the loss curve
// reaches target, or -1 if it never does.
func (r *Result) TimeToLoss(target float64) float64 {
	for _, p := range r.Curve {
		if p.Value <= target {
			return p.Time
		}
	}
	return -1
}

// EpochToLoss returns the earliest epoch at which the loss curve reaches
// target, or -1 if it never does.
func (r *Result) EpochToLoss(target float64) float64 {
	for _, p := range r.Curve {
		if p.Value <= target {
			return p.Epoch
		}
	}
	return -1
}

// AverageModelInto overwrites dst's parameters with the elementwise mean of
// all worker parameter vectors — the consensus model the paper evaluates.
// sum is a scratch buffer of the model's VectorLen. Both runtimes evaluate
// this model: the Tracker at every curve point, live at the end.
func AverageModelInto(dst *nn.Model, ws []*Worker, sum []float64) {
	clear(sum)
	for _, w := range ws {
		w.Model.AddVectorTo(sum)
	}
	for i := range sum {
		sum[i] /= float64(len(ws))
	}
	dst.SetVector(sum)
}

// Tracker accumulates per-iteration bookkeeping shared by all algorithm
// runners: epoch detection, loss sampling, cost decomposition.
type Tracker struct {
	cfg        *Config
	ws         []*Worker
	totalTrain int
	samples    int
	epochsDone int
	res        *Result
	// avg is the consensus model every evaluation averages the workers
	// into; sum is its averaging scratch.
	avg *nn.Model
	sum []float64
}

// NewTracker builds a tracker. The loss curve is evaluated on cfg.Eval.
func NewTracker(cfg *Config, ws []*Worker, algo string) *Tracker {
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	// Every evaluation overwrites avg's parameters first, so a clone of
	// any worker's model serves.
	avg := ws[0].Model.Clone()
	return &Tracker{cfg: cfg, ws: ws, totalTrain: total, res: &Result{Algo: algo},
		avg: avg, sum: make([]float64, avg.VectorLen())}
}

// OnIteration records one worker iteration that ended at virtual time now.
func (t *Tracker) OnIteration(now float64, samples int, compSecs, commSecs float64) {
	t.samples += samples
	t.res.GlobalSteps++
	t.res.CompSecs += compSecs
	t.res.CommSecs += commSecs
	if now > t.res.TotalTime {
		t.res.TotalTime = now
	}
	for t.samples >= (t.epochsDone+1)*t.totalTrain {
		t.epochsDone++
		t.recordPoint(now)
		if t.cfg.LRDecayEpoch > 0 && t.epochsDone == t.cfg.LRDecayEpoch {
			for _, w := range t.ws {
				w.Opt.DecayLR(0.1)
			}
		}
	}
}

// AddBytes records network traffic attributable to the run.
func (t *Tracker) AddBytes(n int64) { t.res.BytesSent += n }

// Done reports whether the configured number of epochs has completed.
func (t *Tracker) Done() bool { return t.epochsDone >= t.cfg.Epochs }

func (t *Tracker) recordPoint(now float64) {
	AverageModelInto(t.avg, t.ws, t.sum)
	loss := t.avg.EvalLoss(t.cfg.Eval.X, t.cfg.Eval.Labels)
	t.res.Curve = append(t.res.Curve, Point{Time: now, Epoch: float64(t.epochsDone), Value: loss})
}

// Finish computes final metrics and returns the result.
func (t *Tracker) Finish() *Result {
	t.res.Epochs = t.epochsDone
	if n := len(t.res.Curve); n > 0 {
		t.res.FinalLoss = t.res.Curve[n-1].Value
	}
	AverageModelInto(t.avg, t.ws, t.sum)
	t.res.FinalAccuracy = t.avg.Accuracy(t.cfg.Test.X, t.cfg.Test.Labels)
	return t.res
}

// Queue holds each worker's next completion on the virtual clock, one slot
// per worker id: a worker runs one iteration at a time (Algorithm 2), and
// the runners push a popped worker at most once before the next pop. A
// Push to a pending slot replaces it. Pop takes the least (time, push
// order), a strict total order, so the pop sequence is deterministic. The
// zero Queue is empty.
type Queue struct {
	time []float64 // +Inf in an empty slot
	seq  []int     // push order; math.MaxInt in an empty slot
	last int       // push order of the latest Push
	n    int       // pending completions
}

// Push schedules worker id to complete at the given virtual time.
func (q *Queue) Push(time float64, id int) {
	for len(q.seq) <= id {
		q.time, q.seq = append(q.time, math.Inf(1)), append(q.seq, math.MaxInt)
	}
	if q.seq[id] == math.MaxInt {
		q.n++
	}
	q.last++
	q.time[id], q.seq[id] = time, q.last
}

// Pop removes and returns the earliest completion. The queue must not be
// empty.
func (q *Queue) Pop() (time float64, id int) {
	for i := 1; i < len(q.seq); i++ {
		if q.time[i] < q.time[id] || q.time[i] == q.time[id] && q.seq[i] < q.seq[id] {
			id = i
		}
	}
	time = q.time[id]
	q.time[id], q.seq[id] = math.Inf(1), math.MaxInt
	q.n--
	return time, id
}

// Len returns the number of pending completions.
func (q *Queue) Len() int { return q.n }
