package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netmax/internal/data"
	"netmax/internal/nn"
	"netmax/internal/simnet"
)

func testConfig(workers, epochs int) *Config {
	train, test := data.SynthMNIST.Generate(1)
	return &Config{
		Spec:    nn.SimMobileNet,
		Part:    data.Uniform(train, workers, 1),
		Eval:    train.Head(200),
		Test:    test,
		Net:     simnet.NewHomogeneous(simnet.SingleMachine(workers)),
		LR:      0.1,
		Batch:   16,
		Epochs:  epochs,
		Seed:    7,
		Overlap: true,
	}
}

func TestWorkersIdenticalInit(t *testing.T) {
	cfg := testConfig(4, 1)
	ws := cfg.Workers()
	v0 := vector(ws[0].Model)
	for _, w := range ws[1:] {
		v := vector(w.Model)
		for i := range v {
			if v[i] != v0[i] {
				t.Fatal("workers start from different models")
			}
		}
	}
}

func TestWorkerBatchScalesWithSegments(t *testing.T) {
	train, test := data.SynthCIFAR100.Generate(2)
	cfg := testConfig(8, 1)
	cfg.Part = data.Segments(train, data.PaperSegments8(), 1)
	cfg.Test = test
	cfg.Batch = 64
	ws := cfg.Workers()
	if ws[0].Batch != 64 {
		t.Fatalf("worker 0 batch = %d, want 64", ws[0].Batch)
	}
	if ws[4].Batch != 128 {
		t.Fatalf("worker 4 (2 segments) batch = %d, want 128", ws[4].Batch)
	}
}

func TestGradStepReducesLocalLoss(t *testing.T) {
	cfg := testConfig(2, 1)
	ws := cfg.Workers()
	w := ws[0]
	// A loss handle reads the logits of its own pass: read each before the
	// next step.
	first := w.ComputeGrad().Item()
	w.ApplyStep()
	var last float64
	for i := 0; i < 50; i++ {
		last = w.ComputeGrad().Item()
		w.ApplyStep()
	}
	if last > first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestGradOnlyDoesNotChangeModel(t *testing.T) {
	cfg := testConfig(2, 1)
	w := cfg.Workers()[0]
	before := vector(w.Model)
	w.ComputeGrad()
	after := vector(w.Model)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("ComputeGrad modified parameters")
		}
	}
}

func TestApplyGradMovesAgainstGradient(t *testing.T) {
	cfg := testConfig(2, 1)
	w := cfg.Workers()[0]
	w.ComputeGrad()
	g := w.Model.GradVector(make([]float64, w.Model.VectorLen()))
	before := vector(w.Model)
	w.ApplyGrad(g)
	after := vector(w.Model)
	// First step with momentum: delta = -lr * (g + wd*x).
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("ApplyGrad did not move parameters")
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(3, 0)
	q.Push(1, 1)
	q.Push(2, 2)
	times := []float64{}
	for q.Len() > 0 {
		tm, _ := q.Pop()
		times = append(times, tm)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("queue not ordered: %v", times)
		}
	}
}

func TestQueueFIFOTieBreak(t *testing.T) {
	var q Queue
	q.Push(1, 10)
	q.Push(1, 20)
	q.Push(1, 30)
	_, a := q.Pop()
	_, b := q.Pop()
	_, c := q.Pop()
	if a != 10 || b != 20 || c != 30 {
		t.Fatalf("tie-break not FIFO: %d %d %d", a, b, c)
	}
}

func TestQueuePushReplacesPending(t *testing.T) {
	var q Queue
	q.Push(5, 0)
	q.Push(1, 1)
	q.Push(0, 0)
	if q.Len() != 2 {
		t.Fatalf("Len = %d after a second push of a pending id, want 2", q.Len())
	}
	if tm, id := q.Pop(); tm != 0 || id != 0 {
		t.Fatalf("first pop = (%v, %d), want (0, 0)", tm, id)
	}
	if tm, id := q.Pop(); tm != 1 || id != 1 || q.Len() != 0 {
		t.Fatalf("second pop = (%v, %d) with %d left, want (1, 1) and none", tm, id, q.Len())
	}
}

// TestQueueMatchesSort drives the queue as the runners do, over up to 256
// workers: every pop is followed by at most one push of the popped worker,
// times repeat, and idle workers are pushed again between pops. Each pop
// must return the head of the pending completions sorted by (time, push
// order).
func TestQueueMatchesSort(t *testing.T) {
	type event struct {
		time    float64
		id, seq int
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(256)
		var q Queue
		var pending []event
		idle := make([]bool, n)
		seq := 0
		push := func(time float64, id int) {
			seq++
			q.Push(time, id)
			pending = append(pending, event{time, id, seq})
			idle[id] = false
		}
		for i := 0; i < n; i++ {
			push(float64(rng.Intn(8)), i)
		}
		for step := 0; len(pending) > 0; step++ {
			slices.SortFunc(pending, func(a, b event) int {
				if c := cmp.Compare(a.time, b.time); c != 0 {
					return c
				}
				return cmp.Compare(a.seq, b.seq)
			})
			want := pending[0]
			pending = pending[1:]
			if q.Len() != len(pending)+1 {
				t.Fatalf("trial %d: Len = %d, want %d", trial, q.Len(), len(pending)+1)
			}
			time, id := q.Pop()
			if time != want.time || id != want.id {
				t.Fatalf("trial %d, pop %d: (%v, %d), want (%v, %d)", trial, step, time, id, want.time, want.id)
			}
			idle[id] = true
			if step < 4*n && rng.Intn(4) != 0 {
				push(time+float64(rng.Intn(3)), id)
			}
			if k := rng.Intn(n); idle[k] && step < 4*n && rng.Intn(2) == 0 {
				push(time+float64(rng.Intn(3)), k)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: %d completions left in a drained queue", trial, q.Len())
		}
	}
}

func TestTrackerEpochDetection(t *testing.T) {
	cfg := testConfig(4, 3)
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, "test")
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	tr.OnIteration(1.0, total-1, 0.1, 0.2)
	if tr.epochsDone != 0 {
		t.Fatal("epoch counted early")
	}
	tr.OnIteration(2.0, 1, 0.1, 0.2)
	if tr.epochsDone != 1 {
		t.Fatalf("epochs = %d, want 1", tr.epochsDone)
	}
	if len(tr.res.Curve) != 1 {
		t.Fatalf("curve points = %d, want 1", len(tr.res.Curve))
	}
	tr.OnIteration(3.0, 2*total, 0.1, 0.2)
	if tr.epochsDone != 3 {
		t.Fatalf("epochs = %d, want 3 after bulk samples", tr.epochsDone)
	}
	if !tr.Done() {
		t.Fatal("tracker should be done after 3 epochs")
	}
}

func TestTrackerCostAccumulation(t *testing.T) {
	cfg := testConfig(2, 10)
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, "test")
	tr.OnIteration(1.0, 1, 0.5, 1.5)
	tr.OnIteration(2.0, 1, 0.5, 0.5)
	r := tr.Finish()
	if math.Abs(r.CompSecs-1.0) > 1e-12 || math.Abs(r.CommSecs-2.0) > 1e-12 {
		t.Fatalf("costs = %v/%v, want 1/2", r.CompSecs, r.CommSecs)
	}
	if r.GlobalSteps != 2 {
		t.Fatalf("steps = %d", r.GlobalSteps)
	}
	if r.TotalTime != 2.0 {
		t.Fatalf("total time = %v", r.TotalTime)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Curve:     []Point{{Time: 10, Epoch: 1, Value: 0.9}, {Time: 20, Epoch: 2, Value: 0.4}, {Time: 30, Epoch: 3, Value: 0.2}},
		Epochs:    3,
		TotalTime: 30,
		CompSecs:  6,
		CommSecs:  12,
	}
	if got := r.TimeToLoss(0.5); got != 20 {
		t.Fatalf("TimeToLoss = %v", got)
	}
	if got := r.TimeToLoss(0.1); got != -1 {
		t.Fatalf("TimeToLoss unreachable = %v", got)
	}
	if got := r.EpochToLoss(0.4); got != 2 {
		t.Fatalf("EpochToLoss = %v", got)
	}
	if got := r.AvgEpochTime(); got != 10 {
		t.Fatalf("AvgEpochTime = %v", got)
	}
	if got := r.CompCostPerEpoch(2); got != 1 {
		t.Fatalf("CompCostPerEpoch = %v", got)
	}
	if got := r.CommCostPerEpoch(2); got != 2 {
		t.Fatalf("CommCostPerEpoch = %v", got)
	}
}

func TestAverageModelIsMean(t *testing.T) {
	cfg := testConfig(2, 1)
	ws := cfg.Workers()
	// Perturb worker 1.
	v := vector(ws[1].Model)
	for i := range v {
		v[i] += 2
	}
	ws[1].Model.SetVector(v)
	avg := cfg.Spec.Build(cfg.Seed+1, cfg.Part.Shards[0].Dim(), cfg.Part.Shards[0].Classes)
	AverageModelInto(avg, ws, make([]float64, avg.VectorLen()))
	av := vector(avg)
	v0 := vector(ws[0].Model)
	for i := range av {
		want := v0[i] + 1
		if math.Abs(av[i]-want) > 1e-12 {
			t.Fatalf("avg[%d] = %v, want %v", i, av[i], want)
		}
	}
}

// simpleBehavior is a uniform-random async behavior for engine-level tests.
type simpleBehavior struct{ m int }

func (s *simpleBehavior) Plan(i int, now float64, rng *rand.Rand) Pull {
	j := rng.Intn(s.m - 1)
	if j >= i {
		j++
	}
	return Pull{Peer: j, Coef: 0.5, Share: 1}
}
func (s *simpleBehavior) OnIterationEnd(i, j int, t, now float64) {}
func (s *simpleBehavior) OnMembership(alive []bool, now float64)  {}

func TestRunAsyncConvergesAndTerminates(t *testing.T) {
	cfg := testConfig(4, 8)
	r := RunAsync(cfg, &simpleBehavior{m: 4}, "uniform")
	if r.Epochs != 8 {
		t.Fatalf("epochs = %d, want 8", r.Epochs)
	}
	if len(r.Curve) != 8 {
		t.Fatalf("curve points = %d, want 8", len(r.Curve))
	}
	if r.FinalLoss >= r.Curve[0].Value {
		t.Fatalf("loss did not decrease: %v -> %v", r.Curve[0].Value, r.FinalLoss)
	}
	if r.FinalAccuracy < 0.8 {
		t.Fatalf("accuracy = %v, want >= 0.8 on easy MNIST", r.FinalAccuracy)
	}
	if r.TotalTime <= 0 || r.GlobalSteps == 0 {
		t.Fatalf("timing missing: %+v", r)
	}
}

func TestRunAsyncDeterministic(t *testing.T) {
	a := RunAsync(testConfig(4, 3), &simpleBehavior{m: 4}, "u")
	b := RunAsync(testConfig(4, 3), &simpleBehavior{m: 4}, "u")
	if a.TotalTime != b.TotalTime || a.FinalLoss != b.FinalLoss || a.GlobalSteps != b.GlobalSteps {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.TotalTime, a.FinalLoss, b.TotalTime, b.FinalLoss)
	}
}

func TestRunAsyncMonotonicCurveTimes(t *testing.T) {
	r := RunAsync(testConfig(4, 5), &simpleBehavior{m: 4}, "u")
	for i := 1; i < len(r.Curve); i++ {
		if r.Curve[i].Time < r.Curve[i-1].Time {
			t.Fatalf("curve times not monotonic: %v", r.Curve)
		}
		if r.Curve[i].Epoch <= r.Curve[i-1].Epoch {
			t.Fatalf("curve epochs not increasing: %v", r.Curve)
		}
	}
}

func TestLRDecayApplied(t *testing.T) {
	cfg := testConfig(2, 4)
	cfg.LRDecayEpoch = 2
	ws := cfg.Workers()
	tr := NewTracker(cfg, ws, "t")
	total := 0
	for _, s := range cfg.Part.Shards {
		total += s.Len()
	}
	tr.OnIteration(1, total, 0, 0) // epoch 1
	if ws[0].Opt.LR != cfg.LR {
		t.Fatal("LR decayed too early")
	}
	tr.OnIteration(2, total, 0, 0) // epoch 2
	if math.Abs(ws[0].Opt.LR-cfg.LR*0.1) > 1e-12 {
		t.Fatalf("LR = %v after decay epoch, want %v", ws[0].Opt.LR, cfg.LR*0.1)
	}
}

func TestSerialSlowerThanOverlap(t *testing.T) {
	mk := func(overlap bool) *Config {
		cfg := testConfig(4, 3)
		cfg.Net = simnet.NewStatic(simnet.PaperCluster(4))
		cfg.Spec = nn.SimResNet18
		cfg.Overlap = overlap
		return cfg
	}
	over := RunAsync(mk(true), &simpleBehavior{m: 4}, "o")
	serial := RunAsync(mk(false), &simpleBehavior{m: 4}, "s")
	if serial.TotalTime <= over.TotalTime {
		t.Fatalf("serial (%v) should be slower than overlapped (%v)", serial.TotalTime, over.TotalTime)
	}
}

// TestComputeGradReusesItsBatchBuffers checks that ComputeGrad draws
// consecutive batches, each equal to the shard's Batch at the cursor,
// over two passes through the shard, so batches that wrap past its end
// (copied into the worker's buffers) and batches that do not (views of
// the shard's rows) both come up, and that a warm call allocates nothing.
func TestComputeGradReusesItsBatchBuffers(t *testing.T) {
	w := testConfig(2, 1).Workers()[0]
	wraps := 0
	for start := 0; start < 2*w.Shard.Len(); start += w.Batch {
		if start%w.Shard.Len()+w.Batch > w.Shard.Len() {
			wraps++
		}
		wantX, wantLabels := w.Shard.Batch(start%w.Shard.Len(), w.Batch)
		w.ComputeGrad()
		for i := range wantX.Data {
			if w.x.Data[i] != wantX.Data[i] {
				t.Fatalf("batch at %d: x[%d] = %v, want %v", start, i, w.x.Data[i], wantX.Data[i])
			}
		}
		for i := range wantLabels {
			if w.labels[i] != wantLabels[i] {
				t.Fatalf("batch at %d: label %d = %d, want %d", start, i, w.labels[i], wantLabels[i])
			}
		}
	}
	if wraps == 0 {
		t.Fatalf("no batch of %d rows wrapped past the end of the %d-row shard", w.Batch, w.Shard.Len())
	}
	if allocs := testing.AllocsPerRun(100, func() { w.ComputeGrad() }); allocs != 0 {
		t.Fatalf("ComputeGrad allocates %v times per call after the first", allocs)
	}
}

// vector returns a fresh copy of m's parameter vector.
func vector(m *nn.Model) []float64 { return m.CopyVector(make([]float64, m.VectorLen())) }
