package data

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"netmax/internal/tensor"
)

func TestGenerateDeterministic(t *testing.T) {
	a, _ := SynthMNIST.Generate(42)
	b, _ := SynthMNIST.Generate(42)
	if a.Len() != b.Len() {
		t.Fatal("sizes differ")
	}
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("data differs for equal seeds")
		}
	}
	c, _ := SynthMNIST.Generate(43)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateShapes(t *testing.T) {
	for _, s := range AllSpecs {
		train, test := s.Generate(1)
		if train.Len() != s.TrainSize || test.Len() != s.TestSize {
			t.Errorf("%s: sizes %d/%d, want %d/%d", s.Name, train.Len(), test.Len(), s.TrainSize, s.TestSize)
		}
		if train.Dim() != s.Dim {
			t.Errorf("%s: dim %d, want %d", s.Name, train.Dim(), s.Dim)
		}
		for _, l := range train.Labels {
			if l < 0 || l >= s.Classes {
				t.Fatalf("%s: label %d out of range", s.Name, l)
			}
		}
	}
}

func TestAllClassesPresent(t *testing.T) {
	train, _ := SynthCIFAR100.Generate(2)
	seen := make(map[int]bool)
	for _, l := range train.Labels {
		seen[l] = true
	}
	if len(seen) != SynthCIFAR100.Classes {
		t.Fatalf("only %d of %d classes present", len(seen), SynthCIFAR100.Classes)
	}
}

func TestBatchWrapsAround(t *testing.T) {
	train, _ := SynthMNIST.Generate(3)
	n := train.Len()
	x, labels := train.Batch(n-2, 5)
	if x.Rows != 5 || len(labels) != 5 {
		t.Fatalf("batch is %dx%d with %d labels, want 5 rows", x.Rows, x.Cols, len(labels))
	}
	// Row 2 of the batch should equal dataset row 0.
	for j := 0; j < train.Dim(); j++ {
		if x.At(2, j) != train.X.At(0, j) {
			t.Fatal("wrap-around row mismatch")
		}
	}
}

// TestBatchIntoMatchesRowByRow checks BatchInto, which copies the rows up
// to each wrap in one piece, against a row-by-row copy, at every start of
// a 7-row dataset and at batch sizes up to three times its length.
func TestBatchIntoMatchesRowByRow(t *testing.T) {
	train, _ := SynthMNIST.Generate(4)
	d := train.Slice([]int{0, 1, 2, 3, 4, 5, 6})
	dim := d.Dim()
	for start := 0; start < 2*d.Len(); start++ {
		for size := 0; size <= 3*d.Len(); size++ {
			x, labels := tensor.New(size, dim), make([]int, size)
			d.BatchInto(x, labels, start)
			for r := 0; r < size; r++ {
				i := (start + r) % d.Len()
				if labels[r] != d.Labels[i] {
					t.Fatalf("start %d size %d: label %d = %d, want %d", start, size, r, labels[r], d.Labels[i])
				}
				for j := 0; j < dim; j++ {
					if x.At(r, j) != d.X.At(i, j) {
						t.Fatalf("start %d size %d: row %d differs from dataset row %d", start, size, r, i)
					}
				}
			}
		}
	}
}

func TestSliceCopies(t *testing.T) {
	train, _ := SynthMNIST.Generate(4)
	sub := train.Slice([]int{0, 1})
	sub.X.Data[0] = 12345
	if train.X.Data[0] == 12345 {
		t.Fatal("Slice shares storage with parent")
	}
}

// TestHeadAliasesRows checks that Head(n) is the first n rows and labels
// of the dataset in place: bitwise equal to Slice over indices 0..n−1,
// and a write through the view shows in the dataset.
func TestHeadAliasesRows(t *testing.T) {
	train, _ := SynthMNIST.Generate(4)
	const n = 400
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	head, want := train.Head(n), train.Slice(idx)
	if head.Len() != n || head.X.Rows != n || head.Dim() != train.Dim() || head.Classes != train.Classes || head.Name != train.Name {
		t.Fatalf("Head(%d) is %dx%d with %d labels", n, head.X.Rows, head.X.Cols, head.Len())
	}
	for i, v := range want.X.Data {
		if math.Float64bits(head.X.Data[i]) != math.Float64bits(v) {
			t.Fatalf("Head element %d = %v, Slice %v", i, head.X.Data[i], v)
		}
	}
	if !reflect.DeepEqual(head.Labels, want.Labels) {
		t.Fatal("Head labels differ from Slice's")
	}
	head.X.Data[5] = 12345
	head.Labels[1] = -1
	if train.X.Data[5] != 12345 || train.Labels[1] != -1 {
		t.Fatal("Head does not share the dataset's storage")
	}
}

func TestUniformPartition(t *testing.T) {
	train, _ := SynthMNIST.Generate(5)
	p := Uniform(train, 8, 1)
	if len(p.Shards) != 8 {
		t.Fatalf("shards = %d", len(p.Shards))
	}
	per := train.Len() / 8
	total := 0
	for i, s := range p.Shards {
		if s.Len() != per {
			t.Errorf("shard %d len = %d, want %d", i, s.Len(), per)
		}
		total += s.Len()
		if p.Segments[i] != 1 {
			t.Errorf("uniform segment weight = %d", p.Segments[i])
		}
	}
	if total > train.Len() {
		t.Fatal("shards overlap-count exceeds dataset")
	}
}

func TestUniformPartitionDisjoint(t *testing.T) {
	train, _ := SynthMNIST.Generate(6)
	p := Uniform(train, 4, 2)
	// Fingerprint each row; shards must not share rows.
	seen := make(map[[2]float64]int)
	for si, s := range p.Shards {
		for i := 0; i < s.Len(); i++ {
			key := [2]float64{s.X.At(i, 0), s.X.At(i, 1)}
			if prev, ok := seen[key]; ok && prev != si {
				t.Fatalf("row shared between shards %d and %d", prev, si)
			}
			seen[key] = si
		}
	}
}

func TestSegmentsProportions(t *testing.T) {
	train, _ := SynthCIFAR100.Generate(7)
	segs := PaperSegments8()
	p := Segments(train, segs, 1)
	per := train.Len() / 10 // total segments = 10
	for i, s := range p.Shards {
		if s.Len() != segs[i]*per {
			t.Errorf("shard %d len = %d, want %d", i, s.Len(), segs[i]*per)
		}
	}
}

func TestPaperSegmentLayouts(t *testing.T) {
	s8 := PaperSegments8()
	if len(s8) != 8 || sum(s8) != 10 {
		t.Fatalf("PaperSegments8 = %v", s8)
	}
	s16 := PaperSegments16()
	if len(s16) != 16 || sum(s16) != 20 {
		t.Fatalf("PaperSegments16 = %v", s16)
	}
}

func TestSegmentsPanicsOnNonPositive(t *testing.T) {
	train, _ := SynthMNIST.Generate(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Segments(train, []int{1, 0}, 1)
}

func TestLabelSkewExcludesLostLabels(t *testing.T) {
	train, _ := SynthMNIST.Generate(8)
	skew := TableIVSkew()
	p := LabelSkew(train, skew, 3)
	if len(p.Shards) != 8 {
		t.Fatalf("shards = %d", len(p.Shards))
	}
	for w, s := range p.Shards {
		for _, l := range s.Labels {
			for _, lost := range skew[w] {
				if l == lost {
					t.Fatalf("worker %d saw lost label %d", w, l)
				}
			}
		}
		if s.Len() == 0 {
			t.Fatalf("worker %d got no data", w)
		}
	}
}

func TestLabelSkewCoversAllExamplesItCan(t *testing.T) {
	train, _ := SynthMNIST.Generate(9)
	p := LabelSkew(train, TableIVSkew(), 4)
	total := 0
	for _, s := range p.Shards {
		total += s.Len()
	}
	// Every label is admissible on at least one worker, so all examples
	// should be assigned.
	if total != train.Len() {
		t.Fatalf("assigned %d of %d examples", total, train.Len())
	}
}

func TestTableSkewShapes(t *testing.T) {
	if len(TableIVSkew()) != 8 {
		t.Fatal("TableIVSkew should list 8 workers")
	}
	if len(TableVIISkew()) != 6 {
		t.Fatal("TableVIISkew should list 6 regions")
	}
	for _, row := range append(TableIVSkew(), TableVIISkew()...) {
		if len(row) != 3 {
			t.Fatalf("each worker loses exactly 3 labels, got %v", row)
		}
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName("CIFAR10")
	if err != nil || s.Classes != 10 {
		t.Fatalf("SpecByName = %+v, %v", s, err)
	}
	if _, err := SpecByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPartitionShardLabelDistributionProperty(t *testing.T) {
	// Property: uniform partitions of a label-balanced dataset keep every
	// class present on every worker (for small m and many samples).
	f := func(seed int64) bool {
		train, _ := SynthMNIST.Generate(seed)
		p := Uniform(train, 4, seed)
		for _, s := range p.Shards {
			seen := map[int]bool{}
			for _, l := range s.Labels {
				seen[l] = true
			}
			if len(seen) < 8 { // generous: at least 8 of 10 classes
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
