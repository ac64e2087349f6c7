package main

import (
	"math/rand"
	"testing"

	"hypertree/internal/gen"
)

func TestMixSequenceHoldsExactShares(t *testing.T) {
	mix, err := gen.NewQueryMix(gen.ServingPool(), serveSkew)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{28, 100, 361} {
		seq := mixSequence(mix, n, rand.New(rand.NewSource(1)))
		counts := make([]int, len(mix.Templates()))
		for _, tpl := range seq {
			counts[tpl]++
		}
		for i, c := range counts {
			want := mix.Weight(i) * float64(n)
			if float64(c) < want-1 || float64(c) > want+1 {
				t.Errorf("n=%d template %d: %d requests, want %.1f±1", n, i, c, want)
			}
		}
	}
}
