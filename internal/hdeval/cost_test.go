package hdeval

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/relation"
	"hypertree/internal/stats"
)

// compileHD returns the exact decomposition of q for evaluator tests.
func compileHD(t *testing.T, q *cq.Query) *decomp.Decomposition {
	t.Helper()
	h, _ := q.Hypergraph()
	_, d, err := decomp.WidthContext(context.Background(), h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// NewEvaluatorCost must order each λ-join ascending by estimated
// cardinality and sort children by estimated node size, without changing
// any produced table.
func TestEvaluatorStatsOrdering(t *testing.T) {
	q := cq.MustParse(`ans(X1, X3) :- r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X1).`)
	d := compileHD(t, q)
	h, _ := q.Hypergraph()
	// price edge i at descending rows so the statistics order reverses the
	// input order wherever a λ has 2+ edges
	rows := make([]float64, h.NumEdges())
	for i := range rows {
		rows[i] = float64(1000 * (len(rows) - i))
	}
	e, err := NewEvaluatorCost(q, d, &stats.EdgeStats{Rows: rows}, KernelChain)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range e.HD.Nodes() {
		order := e.lamOrder[n]
		if len(order) != n.Lambda.Len() {
			t.Fatalf("lamOrder misses edges: %v vs %v", order, n.Lambda.Elems())
		}
		for i := 1; i < len(order); i++ {
			if rows[order[i-1]] > rows[order[i]] {
				t.Fatalf("λ order not ascending by estimate: %v", order)
			}
		}
		for i := 1; i < len(n.Children); i++ {
			if n.Children[i-1].EstRows > n.Children[i].EstRows {
				t.Fatalf("children not sorted by EstRows")
			}
		}
	}

	// equivalence against the statistics-free evaluator, single and sharded
	plainEval, err := NewEvaluator(q, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	db := gen.SkewedSizeDatabase(rng, q, 50, 5, 2)
	ctx := context.Background()
	want, err := plainEval.Enumerate(ctx, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Enumerate(ctx, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("statistics ordering changed answers: %d vs %d rows", got.Rows(), want.Rows())
	}
}

// The chain joins λ connected-first: in a bag λ{a(X,Y), b(Y,Z), c(Z,W)}
// priced so that the ascending-size order is a, c, b — a × c, a cross
// product — the evaluator must join a, b, c instead, with and without
// statistics, and still agree with the naive join.
func TestChainLambdaOrderConnected(t *testing.T) {
	q := cq.MustParse(`ans(X, W) :- a(X, Y), b(Y, Z), c(Z, W).`)
	h, _ := q.Hypergraph()
	root := &decomp.Node{Chi: h.AllVertices(), Lambda: bitset.Of(0, 1, 2)}
	d := &decomp.Decomposition{H: h, Root: root}
	rows := []float64{10, 1000, 20} // a, b, c
	for _, es := range []*stats.EdgeStats{nil, {Rows: rows}} {
		e, err := NewEvaluatorCost(q, d, es, KernelChain)
		if err != nil {
			t.Fatal(err)
		}
		lam := e.lamOrder[e.HD.Root]
		if len(lam) != 3 || lam[0] != 0 || lam[1] != 1 || lam[2] != 2 {
			t.Fatalf("stats %v: λ order %v, want the connected a, b, c", es != nil, lam)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 20; trial++ {
			db := relation.NewDatabase()
			for _, name := range []string{"a", "b", "c"} {
				for i := 0; i < rng.Intn(30); i++ {
					db.AddFact(name, val(rng.Intn(6)), val(rng.Intn(6)))
				}
			}
			want, err := NaiveJoin(db, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Enumerate(context.Background(), db, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: chain disagrees with naive: %d vs %d rows", trial, got.Rows(), want.Rows())
			}
		}
	}
}
