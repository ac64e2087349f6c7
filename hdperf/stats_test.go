package main

import (
	"testing"
	"time"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	got := tail(xs, tailBeyond)
	want := tailStat{Value: 90, Percentile: 90, Beyond: 10, N: 100}
	if got != want {
		t.Fatalf("tail = %+v, want %+v", got, want)
	}
}

func TestTailLargeSampleReachesHighPercentile(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := tail(xs, tailBeyond)
	if got.Beyond != 10 || got.Value != 1989 || got.Percentile != 99.5 {
		t.Fatalf("tail = %+v, want 1989 at p99.5 with 10 beyond", got)
	}
}

func TestTailTiesPushDown(t *testing.T) {
	// The top twelve samples tie at 50: the value just below them is the
	// highest one with ten samples strictly beyond it.
	var xs []float64
	for i := 1; i <= 20; i++ {
		xs = append(xs, float64(i))
	}
	for i := 0; i < 12; i++ {
		xs = append(xs, 50)
	}
	got := tail(xs, tailBeyond)
	if got.Value != 20 || got.Beyond != 12 || got.N != 32 {
		t.Fatalf("tail = %+v, want 20 with 12 beyond of 32", got)
	}
	// Exactly ten tie at the top: the next value down still qualifies.
	xs = []float64{1, 2, 3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	got = tail(xs, tailBeyond)
	if got.Value != 3 || got.Beyond != 10 {
		t.Fatalf("tail = %+v, want 3 with 10 beyond", got)
	}
}

func TestTailTooFewSamplesFallsBackToMax(t *testing.T) {
	for _, xs := range [][]float64{
		{3, 1, 2},
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, // all tie: nothing lies beyond
		make([]float64, 10),
	} {
		got := tail(xs, tailBeyond)
		if got.Percentile != 100 || got.Beyond != 0 || got.N != len(xs) {
			t.Fatalf("tail(%v) = %+v, want the maximum at p100 with 0 beyond", xs, got)
		}
	}
	if got := tail(nil, tailBeyond); got != (tailStat{}) {
		t.Fatalf("tail(nil) = %+v, want zero", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: ms(100)},
		// Two parallel children overlapping on [20, 50]: the union covers
		// [10, 70] = 60ms, their sum would be 80ms.
		{ID: 1, Parent: 0, Start: ms(10), End: ms(50)},
		{ID: 2, Parent: 0, Start: ms(30), End: ms(70)},
		// A grandchild does not count against the root.
		{ID: 3, Parent: 1, Start: ms(15), End: ms(25)},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(40), ms(30), ms(40), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self[%d] = %v, want %v (all %v)", i, self[i], want[i], self)
		}
	}
}

func TestSelfTimeClipsChildrenAndNeverGoesNegative(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: ms(10), End: ms(20)},
		// Children spill past the parent on both sides (clock granularity)
		// and fully cover it between them.
		{ID: 1, Parent: 0, Start: ms(5), End: ms(16)},
		{ID: 2, Parent: 0, Start: ms(12), End: ms(30)},
		{ID: 3, Parent: 0, Start: ms(14), End: ms(15)},
	}
	if self := selfTimes(spans); self[0] != 0 {
		t.Fatalf("self[0] = %v, want 0", self[0])
	}
}

func TestStageAncestor(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"exec", "exec/node", true},
		{"exec", "exec/semijoin/up", true},
		{"compile", "compile/race", true},
		{"exec/node", "exec/node", false},
		{"exec/node", "exec/enumerate", false},
		{"exec/node/sharded", "exec/node/shard", true},
		{"exec/node/sharded", "exec/node/merge", true},
		{"exec/node/sharded", "exec/node", false},
		{"compile", "compiler", false},
	} {
		if got := stageAncestor(c.a, c.b); got != c.want {
			t.Errorf("stageAncestor(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
