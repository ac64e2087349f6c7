package ghd

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/stats"
)

// decompose with default options and no limits.
func mustDecompose(t *testing.T, h *hypergraph.Hypergraph) *decomp.Decomposition {
	t.Helper()
	d, err := Decompose(context.Background(), h, Options{}, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func queryHG(t *testing.T, q interface {
	Hypergraph() (*hypergraph.Hypergraph, []int)
}) *hypergraph.Hypergraph {
	t.Helper()
	h, _ := q.Hypergraph()
	return h
}

// Every GHD produced on the paper's example corpus and the parametric
// families must satisfy conditions 1–3 of Definition 4.1.
func TestGreedyGHDValid(t *testing.T) {
	queries := map[string]*hypergraph.Hypergraph{
		"Q1":        queryHG(t, gen.Q1()),
		"Q4":        queryHG(t, gen.Q4()),
		"Q5":        queryHG(t, gen.Q5()),
		"cycle12":   queryHG(t, gen.Cycle(12)),
		"grid44":    queryHG(t, gen.Grid(4, 4)),
		"clique6":   queryHG(t, gen.CliqueBinary(6)),
		"star8":     queryHG(t, gen.Star(8)),
		"classC4":   queryHG(t, gen.ClassCn(4)),
		"path9":     queryHG(t, gen.Path(9)),
		"csp50atom": queryHG(t, gen.RandomCSP(rand.New(rand.NewSource(7)), 30, 50, 3)),
	}
	for name, h := range queries {
		d := mustDecompose(t, h)
		if err := d.ValidateGHD(); err != nil {
			t.Errorf("%s: invalid GHD: %v", name, err)
		}
		if d.Width() < 1 {
			t.Errorf("%s: width %d < 1", name, d.Width())
		}
	}
}

// On known families the greedy width must match the structure: hw upper
// bounds that the heuristics are known to hit.
func TestGreedyGHDKnownWidths(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want int // acceptable maximum greedy width
	}{
		{"path9 (acyclic)", queryHG(t, gen.Path(9)), 1},
		{"star8 (acyclic)", queryHG(t, gen.Star(8)), 1},
		{"classC4 (acyclic)", queryHG(t, gen.ClassCn(4)), 1},
		{"cycle12 (hw 2)", queryHG(t, gen.Cycle(12)), 2},
		{"Q5 (hw 2)", queryHG(t, gen.Q5()), 2},
	} {
		d := mustDecompose(t, tc.h)
		if got := d.Width(); got > tc.want {
			t.Errorf("%s: greedy width %d, want ≤ %d", tc.name, got, tc.want)
		}
	}
}

// The greedy width can never beat the exact hypertree width (ghw ≤ hw, so a
// valid GHD of width < hw would contradict ghw ≤ hw only if... it cannot be
// smaller than ghw, and hw ≥ ghw — i.e. greedy < exact hw is legal for a
// GHD in general, but on these small instances with binary edges ghw = hw,
// so the exact hw is a hard lower bound for what the greedy can report).
func TestGreedyWidthAtLeastGHW(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		q := gen.RandomQuery(rng, 2+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(3))
		h, _ := q.Hypergraph()
		if h.NumEdges() == 0 {
			continue
		}
		g := mustDecompose(t, h)
		// a GHD of width w certifies ghw ≤ w; validating it is the real check
		if err := g.ValidateGHD(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// MaxWidth: accepted when a trial reaches it, ErrWidthExceeded otherwise.
func TestGreedyMaxWidth(t *testing.T) {
	h := queryHG(t, gen.Cycle(12)) // greedy finds width 2
	if _, err := Decompose(context.Background(), h, Options{}, 2, 0, 1); err != nil {
		t.Fatalf("maxWidth 2 on cycle(12): %v", err)
	}
	if _, err := Decompose(context.Background(), h, Options{}, 1, 0, 1); !errors.Is(err, decomp.ErrWidthExceeded) {
		t.Fatalf("maxWidth 1 on cycle(12): err = %v, want ErrWidthExceeded", err)
	}
}

// Step budget: too small to finish a single ordering → ErrStepBudget; big
// enough for one trial but not all → the best-so-far is still returned.
func TestGreedyStepBudget(t *testing.T) {
	h := queryHG(t, gen.Grid(4, 4)) // 16 vertices
	if _, err := Decompose(context.Background(), h, Options{}, 0, 3, 1); !errors.Is(err, decomp.ErrStepBudget) {
		t.Fatalf("budget 3: err = %v, want ErrStepBudget", err)
	}
	// 20 steps: the first min-fill pass (16 eliminations) completes, later
	// trials are cut off — the completed decomposition must be returned.
	d, err := Decompose(context.Background(), h, Options{}, 0, 20, 1)
	if err != nil {
		t.Fatalf("budget 20: %v", err)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
}

// Cancellation aborts promptly with ctx.Err().
func TestGreedyCancelled(t *testing.T) {
	h := queryHG(t, gen.Grid(5, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Decompose(ctx, h, Options{}, 0, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Sequential and parallel improvement loops must agree exactly: trials are
// independently seeded and ties go to the lowest trial index.
func TestGreedyParallelDeterministic(t *testing.T) {
	for _, q := range []*hypergraph.Hypergraph{
		queryHG(t, gen.Grid(4, 4)),
		queryHG(t, gen.RandomCSP(rand.New(rand.NewSource(3)), 20, 35, 3)),
	} {
		seq, err := Decompose(context.Background(), q, Options{}, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Decompose(context.Background(), q, Options{}, 0, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Width() != par.Width() {
			t.Fatalf("sequential width %d != parallel width %d", seq.Width(), par.Width())
		}
	}
}

// Each single ordering on its own produces a valid GHD; the portfolio keeps
// the best of them.
func TestGreedyOrderingsIndividually(t *testing.T) {
	h := queryHG(t, gen.Grid(4, 4))
	best := 1 << 30
	for _, ord := range []Ordering{MinFill, MinDegree, MaxCardinality} {
		d, err := Decompose(context.Background(), h, Options{Orderings: []Ordering{ord}, Restarts: -1}, 0, 0, 1)
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if d.Width() < best {
			best = d.Width()
		}
	}
	portfolio, err := Decompose(context.Background(), h, Options{}, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if portfolio.Width() > best {
		t.Fatalf("portfolio width %d worse than best single ordering %d", portfolio.Width(), best)
	}
}

// The empty hypergraph decomposes to the empty decomposition.
func TestGreedyEmpty(t *testing.T) {
	d, err := Decompose(context.Background(), hypergraph.New(), Options{}, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != nil {
		t.Fatal("empty hypergraph must yield an empty decomposition")
	}
}

// GreedyCover covers each bag with edges and never returns an empty λ for a
// non-empty bag.
func TestGreedyCover(t *testing.T) {
	h := queryHG(t, gen.Q5())
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var bag = h.Edge(rng.Intn(h.NumEdges())).Clone()
		bag.UnionInPlace(h.Edge(rng.Intn(h.NumEdges())))
		lambda := GreedyCover(h, bag)
		if !bag.SubsetOf(h.Vars(lambda)) {
			t.Fatalf("trial %d: bag %v not covered by λ %v", trial, h.VertexNames(bag), h.EdgeNames(lambda))
		}
	}
}

// The acceptance-criterion shape at package level: a 50-atom cyclic CSP
// decomposes in well under a second.
func TestGreedyLargeCSPFast(t *testing.T) {
	h := queryHG(t, gen.RandomCSP(rand.New(rand.NewSource(42)), 30, 50, 3))
	start := time.Now()
	d, err := Decompose(context.Background(), h, Options{}, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("greedy took %v on a 50-atom CSP, want < 1s", elapsed)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	t.Logf("50-atom CSP: greedy width %d, %d nodes", d.Width(), d.NumNodes())
}

// GreedyCoverCost must break equal-coverage ties toward the relation with
// the fewest tuples: on a bag coverable by either of two parallel edges,
// the giant loses exactly when statistics are present.
func TestGreedyCoverCostPrefersCheapEdges(t *testing.T) {
	h := hypergraph.New()
	big := h.AddEdge("big", "X", "Y")
	mid := h.AddEdge("mid", "Y", "Z")
	small := h.AddEdge("small", "X", "Y")
	bag := h.Edge(big).Union(h.Edge(mid))

	plain := GreedyCover(h, bag)
	if !plain.Has(big) || plain.Has(small) {
		t.Fatalf("width-only cover should keep the lowest index: %v", plain)
	}
	rows := make([]float64, h.NumEdges())
	rows[big], rows[mid], rows[small] = 100000, 50, 10
	costed := GreedyCoverCost(h, bag, &stats.EdgeStats{Rows: rows})
	if costed.Has(big) || !costed.Has(small) || !costed.Has(mid) {
		t.Fatalf("cost-aware cover kept the giant: %v", costed)
	}
	if costed.Len() != plain.Len() {
		t.Fatalf("cost awareness changed the cover size: %d vs %d", costed.Len(), plain.Len())
	}
}

// With statistics, Decompose must keep its width contract while landing on a
// cheaper decomposition than the width-only run, sequentially and in
// parallel.
func TestDecomposeCostTieBreak(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("big", "X1", "X2")
	h.AddEdge("c2", "X2", "X3")
	h.AddEdge("c3", "X3", "X4")
	h.AddEdge("c4", "X4", "X1")
	h.AddEdge("small", "X1", "X2")
	rows := &stats.EdgeStats{Rows: []float64{100000, 1000, 100, 50, 10}}

	ctx := context.Background()
	plain, err := Decompose(ctx, h, Options{}, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		costed, err := Decompose(ctx, h, Options{Stats: rows}, 0, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if costed.Width() != plain.Width() {
			t.Fatalf("workers=%d: statistics changed the width: %d vs %d", workers, costed.Width(), plain.Width())
		}
		if err := costed.ValidateGHD(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if cc, pc := costed.CostWith(rows), plain.CostWith(rows); cc > pc {
			t.Fatalf("workers=%d: cost-aware decomposition costs %g > width-only %g", workers, cc, pc)
		}
	}
}

// The cheap-edge tie-break must never grow the cover: on this bag the
// cost-greedy first pick (the cheap diagonal edge) would force a 3-edge
// cover where width-only greedy finds 2 — GreedyCoverCost has to detect
// that and keep the smaller cover, so statistics cannot inflate the width.
func TestGreedyCoverCostNeverGrowsCover(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e1", "a", "b")
	h.AddEdge("e2", "c", "d")
	h.AddEdge("e3", "a", "c")
	bag := bitset.FromSlice([]int{0, 1, 2, 3})
	rows := &stats.EdgeStats{Rows: []float64{1000, 1000, 2}}

	plain := GreedyCover(h, bag)
	costed := GreedyCoverCost(h, bag, rows)
	if costed.Len() > plain.Len() {
		t.Fatalf("statistics grew the cover: %d edges vs %d", costed.Len(), plain.Len())
	}
	if costed.Len() != 2 {
		t.Fatalf("cover size %d, want 2", costed.Len())
	}
}

// Among equally covering edges the cost-aware cover picks the one that
// keeps λ joined, not the smallest relation: on the serving workload's
// 4-cycle, the bag {X1,X2,X3} first takes r2(X2,X3), and then r1(X1,X2)
// (which shares X2) must beat r4(X4,X1) — barely smaller, but a cross
// product with r2. Rows-only tie-breaking picks r4 and makes the node a
// product of two unrelated relations.
func TestGreedyCoverCostKeepsLambdaJoined(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("r1", "X1", "X2")
	h.AddEdge("r2", "X2", "X3")
	h.AddEdge("r3", "X3", "X4")
	h.AddEdge("r4", "X4", "X1")
	es := &stats.EdgeStats{Rows: []float64{1992, 1990, 2000, 1988}}
	for e := 0; e < h.NumEdges(); e++ {
		es.Vars = append(es.Vars, h.Edge(e).Elems())
		es.Distinct = append(es.Distinct, []float64{500, 500})
	}
	for _, bag := range []bitset.Set{bitset.Of(0, 1, 2), bitset.Of(0, 2, 3)} {
		lam := GreedyCoverCost(h, bag, es)
		n := &decomp.Node{Chi: bag, Lambda: lam}
		if lam.Len() != 2 || decomp.CrossProduct(h, n) {
			t.Errorf("bag %v: cover %v is not a 2-edge join", h.VertexNames(bag), h.EdgeNames(lam))
		}
		if !bag.SubsetOf(h.Vars(lam)) {
			t.Errorf("bag %v: cover %v does not cover it", h.VertexNames(bag), h.EdgeNames(lam))
		}
	}
	// rows only: no variables, so the tie-break is fewest rows — the
	// cross product r2 × r4
	rowsOnly := GreedyCoverCost(h, bitset.Of(0, 1, 2), &stats.EdgeStats{Rows: es.Rows})
	if !rowsOnly.Has(1) || !rowsOnly.Has(3) {
		t.Errorf("rows-only cover %v, want r2 and r4", h.EdgeNames(rowsOnly))
	}
}
