package hdeval

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/relation"
	"hypertree/internal/stats"
)

// symmetricTriangleStats builds EdgeStats for the triangle query — every
// edge the same row count, every bound variable the same distinct count —
// so whichever edge pair a decomposition bags together, the cost model sees
// the same two-relation join on one shared variable.
func symmetricTriangleStats(q *cq.Query, rows, distinct float64) *stats.EdgeStats {
	h, _ := q.Hypergraph()
	es := &stats.EdgeStats{
		Rows:     make([]float64, h.NumEdges()),
		Vars:     make([][]int, h.NumEdges()),
		Distinct: make([][]float64, h.NumEdges()),
	}
	for e := range es.Rows {
		es.Rows[e] = rows
		es.Vars[e] = h.Edge(e).Elems()
		es.Distinct[e] = make([]float64, len(es.Vars[e]))
		for i := range es.Distinct[e] {
			es.Distinct[e][i] = distinct
		}
	}
	return es
}

// kernelsOf collects the decided per-node kernels from NodeInfos.
func kernelsOf(e *Evaluator) []string {
	var out []string
	for _, info := range e.NodeInfos() {
		out = append(out, info.Kernel)
	}
	return out
}

// The cost anchors, calibrated to the E27/E29 measurements: a hash-join
// row costs enough more than a counting-sort cell that leapfrog wins every
// bag — single-relation bags included — large enough to amortise its fixed
// setup, whatever the join selectivity, while tiny bags stay on the chain
// because the setup term dominates. All three anchors sit well clear of
// the decision boundary so reasonable constant recalibration does not flip
// them.
func TestCostDecisionAnchors(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`)
	d := decompose(q)

	selective := symmetricTriangleStats(q, 5000, 5000)
	eSel, err := NewEvaluatorCost(q, d, selective, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelsOf(eSel) {
		if k != "leapfrog(cost)" && k != "chain(fallback)" {
			t.Fatalf("large selective bag priced to %q, want leapfrog(cost): %v", k, kernelsOf(eSel))
		}
	}

	// Output explosion (10 distinct values over 1000 rows: |out| = 100·|in|)
	// does NOT hand the bag back to the chain: E29 measured the chain 3×
	// slower than leapfrog on exactly this shape — every exploded row costs
	// the hash path more than it costs the trie enumerator.
	exploding := symmetricTriangleStats(q, 1000, 10)
	eExp, err := NewEvaluatorCost(q, d, exploding, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	explodingLf := 0
	for _, k := range kernelsOf(eExp) {
		if k == "leapfrog(cost)" {
			explodingLf++
		}
	}
	if explodingLf == 0 {
		t.Fatalf("no bag priced to leapfrog on the exploding workload: %v", kernelsOf(eExp))
	}

	// Tiny bags stay on the chain: costLfSetup outweighs everything else.
	tiny := symmetricTriangleStats(q, 40, 40)
	eTiny, err := NewEvaluatorCost(q, d, tiny, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelsOf(eTiny) {
		if k != "chain(cost)" {
			t.Fatalf("tiny bag priced to %q, want chain(cost): %v", k, kernelsOf(eTiny))
		}
	}

	// Pricing is mechanism only: both evaluators agree with the naive join.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		db := relation.NewDatabase()
		for _, name := range []string{"r", "s", "t"} {
			for i := 0; i < rng.Intn(15); i++ {
				db.AddFact(name, val(rng.Intn(5)), val(rng.Intn(5)))
			}
		}
		want, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Evaluator{eSel, eExp, eTiny} {
			got, err := e.Enumerate(context.Background(), db, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: cost-kerneled evaluation disagrees with naive join", trial)
			}
		}
	}
}

// Without distinct counts the auto policy must degrade to the arity rule,
// recorded as such.
func TestAutoWithoutStatsUsesArityRule(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`)
	d := decompose(q)
	e, err := NewEvaluatorCost(q, d, nil, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelsOf(e) {
		if !strings.HasSuffix(k, "(arity)") && k != "chain(fallback)" {
			t.Fatalf("statistics-free auto decision %q, want an (arity) qualifier", k)
		}
	}
}

// A node whose χ reaches outside var(λ) has no leapfrog plan; a policy that
// wanted leapfrog must fall back to the chain observably — counted on the
// evaluator and named in the per-node record.
func TestLeapfrogFallbackObservable(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z)`)
	h, _ := q.Hypergraph()
	vx, _ := q.VarIndex("X")
	vy, _ := q.VarIndex("Y")
	vz, _ := q.VarIndex("Z")
	// Root covers all three variables but λ holds only r: Z ∉ var(λ).
	// Complete() attaches ⟨χ={Y,Z}, λ={s}⟩ below it, which leapfrogs fine.
	d := &decomp.Decomposition{H: h, Root: &decomp.Node{
		Chi:    bitset.Of(vx, vy, vz),
		Lambda: bitset.Of(0),
	}}
	e, err := NewEvaluatorCost(q, d, nil, KernelLeapfrog)
	if err != nil {
		t.Fatal(err)
	}
	if e.LeapfrogFallbacks() != 1 {
		t.Fatalf("LeapfrogFallbacks = %d, want 1", e.LeapfrogFallbacks())
	}
	fallbacks := 0
	for _, k := range kernelsOf(e) {
		if k == "chain(fallback)" {
			fallbacks++
		}
	}
	if fallbacks != 1 {
		t.Fatalf("kernels %v, want exactly one chain(fallback)", kernelsOf(e))
	}
	// No evaluation here: a χ outside var(λ) violates the decomposition
	// conditions, so neither kernel can materialise the node — the point is
	// only that the policy's retreat is counted and named, never silent.
}

// The encoding cache: same database and key hit; a new database pointer is
// a new generation and drops every prior entry.
func TestEncCacheGenerations(t *testing.T) {
	db1 := relation.NewDatabase()
	db2 := relation.NewDatabase()
	tab := relation.NewTable([]int{0})
	enc := func() (*relation.Columnar, error) { return relation.NewColumnar(tab, []int{0}), nil }

	var c encCache
	h0, m0 := ColumnarCacheCounters()
	key := encKey{edge: 0, order: "0,"}

	first, err := c.get(db1, key, enc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.get(db1, key, enc)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("same generation, same key: want the cached encoding back")
	}
	h1, m1 := ColumnarCacheCounters()
	if h1-h0 != 1 || m1-m0 != 1 {
		t.Fatalf("hits/misses delta = %d/%d, want 1/1", h1-h0, m1-m0)
	}

	// Swap the database: generation reset, the entry must rebuild.
	third, err := c.get(db2, key, enc)
	if err != nil {
		t.Fatal(err)
	}
	_ = third
	h2, m2 := ColumnarCacheCounters()
	if h2-h1 != 0 || m2-m1 != 1 {
		t.Fatalf("post-swap hits/misses delta = %d/%d, want 0/1", h2-h1, m2-m1)
	}

	// And db1's entries are gone: touching db1 again misses too.
	if _, err := c.get(db1, key, enc); err != nil {
		t.Fatal(err)
	}
	_, m3 := ColumnarCacheCounters()
	if m3-m2 != 1 {
		t.Fatalf("returning to the old generation must miss, delta = %d", m3-m2)
	}
}

// orderKey must injectively render orders (no "1,2" vs "12" collisions).
func TestOrderKeyInjective(t *testing.T) {
	if orderKey([]int{1, 2}) == orderKey([]int{12}) {
		t.Fatal("orderKey collides on {1,2} vs {12}")
	}
	if orderKey([]int{}) != "" {
		t.Fatalf("orderKey(empty) = %q", orderKey([]int{}))
	}
}
