package hdeval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/fhd"
	"hypertree/internal/gen"
	"hypertree/internal/ghd"
	"hypertree/internal/relation"
	"hypertree/internal/shard"
)

// checkLeapfrogOrder asserts the leapfrog plan invariants of node n: the
// order enumerates var(λ) exactly once; every variable after the first
// shares a λ edge with an earlier one, unless no remaining variable does
// (λ itself is disconnected and a new component starts); the output prefix
// order[:nOut] holds every χ variable and ends on one; and lf.chi lists χ
// in order sequence.
func checkLeapfrogOrder(t *testing.T, e *Evaluator, n *decomp.Node, lf *lfNode) {
	t.Helper()
	h := e.HD.H
	lam := e.lamOrder[n]
	if got, want := len(lf.order), h.Vars(n.Lambda).Len(); got != want {
		t.Fatalf("%s: order %v has %d variables, var(λ) has %d", e.nodeLabel(n), lf.order, got, want)
	}
	adjacent := func(prefix bitset.Set, v int) bool {
		for _, e2 := range lam {
			if edge := h.Edge(e2); edge.Has(v) && edge.Intersects(prefix) {
				return true
			}
		}
		return false
	}
	var prefix bitset.Set
	for i, v := range lf.order {
		if prefix.Has(v) {
			t.Fatalf("%s: order %v repeats %d", e.nodeLabel(n), lf.order, v)
		}
		if i > 0 && !adjacent(prefix, v) {
			for _, w := range lf.order[i:] {
				if adjacent(prefix, w) {
					t.Fatalf("%s: order %v breaks connectivity at %d while %d connects",
						e.nodeLabel(n), lf.order, v, w)
				}
			}
		}
		prefix.Add(v)
	}
	var out bitset.Set
	for _, v := range lf.order[:lf.nOut] {
		if n.Chi.Has(v) {
			out.Add(v)
		}
	}
	if !out.Equal(n.Chi) || len(lf.chi) != n.Chi.Len() || (lf.nOut > 0 && !n.Chi.Has(lf.order[lf.nOut-1])) {
		t.Fatalf("%s: output prefix %v (nOut %d, chi %v) does not end on the last χ variable",
			e.nodeLabel(n), lf.order, lf.nOut, lf.chi)
	}
}

// enumerateAll runs ev single-database and over a 3-shard hash partition.
func enumerateAll(t *testing.T, ev *Evaluator, db *relation.Database) (single, sharded *relation.Table) {
	t.Helper()
	ctx := context.Background()
	single, err := ev.Enumerate(ctx, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := shard.Partition(db, 3, shard.Hash)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err = ev.EnumerateSharded(ctx, p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return single, sharded
}

// Over random queries decomposed by each engine, every leapfrog node's
// variable order is prefix-connected, and leapfrog ≡ chain ≡ naive,
// single-database and sharded.
func TestLeapfrogOrderConnected(t *testing.T) {
	ctx := context.Background()
	engines := []struct {
		name string
		run  func(h *cq.Query) (*decomp.Decomposition, error)
	}{
		{"k-decomp", func(q *cq.Query) (*decomp.Decomposition, error) {
			h, _ := q.Hypergraph()
			_, d, err := decomp.WidthContext(ctx, h, 200_000)
			return d, err
		}},
		{"ghd", func(q *cq.Query) (*decomp.Decomposition, error) {
			h, _ := q.Hypergraph()
			return ghd.Decompose(ctx, h, ghd.Options{}, 0, 0, 1)
		}},
		{"fhd", func(q *cq.Query) (*decomp.Decomposition, error) {
			h, _ := q.Hypergraph()
			return fhd.Decompose(ctx, h, ghd.Options{}, 0, 0)
		}},
	}
	nodes := 0
	for _, kc := range gen.KernelCases(13, 42) {
		want, err := NaiveJoin(kc.DB, kc.Q)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range engines {
			d, err := en.run(kc.Q)
			if err != nil {
				continue // budget-bound exact search: the heuristics still cover the case
			}
			lf, err := NewEvaluatorCost(kc.Q, d, nil, KernelLeapfrog)
			if err != nil {
				t.Fatal(err)
			}
			for n, p := range lf.lfNodes {
				checkLeapfrogOrder(t, lf, n, p)
				nodes++
			}
			chain, err := NewEvaluatorCost(kc.Q, d, nil, KernelChain)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range []*Evaluator{lf, chain} {
				single, sharded := enumerateAll(t, ev, kc.DB)
				if !single.Equal(want) || !sharded.Equal(want) {
					t.Fatalf("%s/%s kernel %s: single %d / sharded %d rows, naive %d",
						kc.Name, en.name, ev.Kernel(), single.Rows(), sharded.Rows(), want.Rows())
				}
			}
		}
	}
	if nodes == 0 {
		t.Fatal("no leapfrog node checked")
	}
}

// The order cliff: a bag χ{X,Z} λ{r(X,Y), s(Y,Z)} projects away the join
// variable Y. A χ-first order enumerates X × Z before Y can prune it —
// seconds at this scale — so the connected order interleaves Y between X
// and Z and projects the output. At 8k rows per relation the node must
// agree with the chain and the naive join, single-database and sharded.
func TestLeapfrogProjectedJoinVariable(t *testing.T) {
	q := cq.MustParse(`ans(X, Z) :- r(X, Y), s(Y, Z).`)
	h, _ := q.Hypergraph()
	x, _ := h.VertexIndex("X")
	y, _ := h.VertexIndex("Y")
	z, _ := h.VertexIndex("Z")
	root := &decomp.Node{Chi: bitset.Of(x, z), Lambda: bitset.Of(0, 1)}
	root.Children = []*decomp.Node{{Chi: bitset.Of(x, y, z), Lambda: bitset.Of(0, 1)}}
	d := &decomp.Decomposition{H: h, Root: root}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}

	lf, err := NewEvaluatorCost(q, d, nil, KernelLeapfrog)
	if err != nil {
		t.Fatal(err)
	}
	p := lf.lfNodes[lf.HD.Root]
	if p == nil {
		t.Fatal("root has no leapfrog plan")
	}
	checkLeapfrogOrder(t, lf, lf.HD.Root, p)
	if p.order[1] != y || p.nOut != 3 {
		t.Fatalf("root order %v (nOut %d): want the join variable Y interleaved before the last χ variable", p.order, p.nOut)
	}

	const rows = 8000
	rng := rand.New(rand.NewSource(3))
	db := relation.NewDatabase()
	for i := 0; i < rows; i++ {
		db.AddFact("r", fmt.Sprint(rng.Intn(rows)), fmt.Sprint(rng.Intn(rows)))
		db.AddFact("s", fmt.Sprint(rng.Intn(rows)), fmt.Sprint(rng.Intn(rows)))
	}
	want, err := NaiveJoin(db, q)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := NewEvaluatorCost(q, d, nil, KernelChain)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*Evaluator{lf, chain} {
		single, sharded := enumerateAll(t, ev, db)
		if !single.Equal(want) || !sharded.Equal(want) {
			t.Fatalf("kernel %s: single %d / sharded %d rows, naive %d", ev.Kernel(), single.Rows(), sharded.Rows(), want.Rows())
		}
	}
}
