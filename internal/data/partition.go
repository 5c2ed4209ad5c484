package data

import (
	"fmt"
	"math/rand"
)

// Partition assigns a shard of a dataset to each of M workers.
type Partition struct {
	Shards []*Dataset
	// Segments[i] is the relative data weight of worker i (1 except under
	// the non-uniform segment scheme of Section V-F, where batch size is
	// 64 x segments).
	Segments []int
}

// Uniform splits train evenly across m workers (Sections V-B..V-E): the
// segment partition with one segment per worker.
func Uniform(train *Dataset, m int, seed int64) *Partition {
	segs := make([]int, m)
	for i := range segs {
		segs[i] = 1
	}
	return Segments(train, segs, seed)
}

// Segments implements the paper's non-uniform partitioning (Section V-F):
// the dataset is cut into sum(segments) equal segments and worker i receives
// segments[i] of them. The paper's 8-node setting uses
// (1,1,1,1,2,1,2,1); the 16-node ImageNet setting appends another
// (1,...,1,2,1,2,1,2,1,2,1).
func Segments(train *Dataset, segments []int, seed int64) *Partition {
	total := 0
	for _, s := range segments {
		if s <= 0 {
			panic(fmt.Sprintf("data: segment count must be positive, got %v", segments))
		}
		total += s
	}
	idx := shuffledIndices(train.Len(), seed)
	per := train.Len() / total
	shards := make([]*Dataset, len(segments))
	off := 0
	for i, s := range segments {
		n := s * per
		shards[i] = train.Slice(idx[off : off+n])
		off += n
	}
	return &Partition{Shards: shards, Segments: append([]int(nil), segments...)}
}

// PaperSegments8 is the 8-worker segment layout of Section V-F.
func PaperSegments8() []int { return []int{1, 1, 1, 1, 2, 1, 2, 1} }

// PaperSegments16 is the 16-worker ImageNet segment layout of Section V-F.
func PaperSegments16() []int {
	return []int{1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1}
}

// LabelSkew removes the given labels from each worker's shard, reproducing
// the paper's extreme non-IID setting. lostLabels[i] lists the class labels
// worker i never sees. Remaining examples are split round-robin so each
// worker still gets a similar sample count.
func LabelSkew(train *Dataset, lostLabels [][]int, seed int64) *Partition {
	m := len(lostLabels)
	idx := shuffledIndices(train.Len(), seed)
	perWorker := make([][]int, m)
	next := 0
	for _, i := range idx {
		// Assign example i to the next worker (round-robin) that is allowed
		// to see its label.
		for tries := 0; tries < m; tries++ {
			w := (next + tries) % m
			if !contains(lostLabels[w], train.Labels[i]) {
				perWorker[w] = append(perWorker[w], i)
				next = (w + 1) % m
				break
			}
		}
	}
	shards := make([]*Dataset, m)
	segs := make([]int, m)
	for w := range shards {
		shards[w] = train.Slice(perWorker[w])
		segs[w] = 1
	}
	return &Partition{Shards: shards, Segments: segs}
}

// TableIVSkew returns the paper's Table IV MNIST label distribution for 8
// workers: w0..w3 on server 1 lose {0,1,2},{0,1,3},{0,1,4},{0,1,5}; w4..w7 on
// server 2 lose {5,6,7},{5,6,8},{5,6,9},{5,6,0}.
func TableIVSkew() [][]int {
	return [][]int{
		{0, 1, 2}, {0, 1, 3}, {0, 1, 4}, {0, 1, 5},
		{5, 6, 7}, {5, 6, 8}, {5, 6, 9}, {5, 6, 0},
	}
}

// TableVIISkew returns the paper's Table VII cross-region label distribution
// for 6 workers (US West, US East, Ireland, Mumbai, Singapore, Tokyo).
func TableVIISkew() [][]int {
	return [][]int{
		{0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {4, 5, 6}, {5, 6, 7}, {6, 7, 8},
	}
}

func shuffledIndices(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)
	return idx
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
