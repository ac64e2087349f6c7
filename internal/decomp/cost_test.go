package decomp

import (
	"math"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
	"hypertree/internal/stats"
)

func costHypergraph() *hypergraph.Hypergraph {
	h := hypergraph.New()
	h.AddEdge("big", "X", "Y")
	h.AddEdge("mid", "Y", "Z")
	h.AddEdge("small", "Z", "X")
	return h
}

func TestNodeCostIntegralAndFractional(t *testing.T) {
	// rows only: no variables, so the join estimate is the cross product
	// and the cost reads as the AGM bound
	rows := &stats.EdgeStats{Rows: []float64{1000, 100, 10}}
	n := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1)}
	if got := NodeCost(n, rows); got != 1000*100 {
		t.Errorf("integral NodeCost = %g, want 1e5", got)
	}
	// fractional weights exponentiate: the AGM reading
	n.Weights = map[int]float64{0: 0.5, 1: 0.5}
	want := math.Sqrt(1000) * math.Sqrt(100)
	if got := NodeCost(n, rows); math.Abs(got-want) > 1e-9 {
		t.Errorf("fractional NodeCost = %g, want %g", got, want)
	}
	// nil statistics: cost collapses to 1
	if got := NodeCost(n, nil); got != 1 {
		t.Errorf("NodeCost without stats = %g, want 1", got)
	}
	// zero-row relations clamp to 1 instead of erasing the product
	n2 := &Node{Lambda: bitset.Of(0, 2)}
	if got := NodeCost(n2, &stats.EdgeStats{Rows: []float64{0, 5, 7}}); got != 7 {
		t.Errorf("clamped NodeCost = %g, want 7", got)
	}
}

func TestCostWithAndAnnotate(t *testing.T) {
	h := costHypergraph()
	child := &Node{Chi: bitset.Of(0, 2), Lambda: bitset.Of(2)}
	root := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1), Children: []*Node{child}}
	d := &Decomposition{H: h, Root: root}
	rows := &stats.EdgeStats{Rows: []float64{1000, 100, 10}}
	if got := d.CostWith(rows); got != 1000*100+10 {
		t.Errorf("CostWith = %g", got)
	}
	if total := d.AnnotateCosts(rows); total != 1000*100+10 {
		t.Errorf("AnnotateCosts total = %g", total)
	}
	if root.EstRows != 1000*100 || child.EstRows != 10 {
		t.Errorf("EstRows = %g / %g", root.EstRows, child.EstRows)
	}
	// clones keep the annotation
	c := d.Complete()
	if c.Root.EstRows != root.EstRows {
		t.Errorf("Complete dropped EstRows: %g", c.Root.EstRows)
	}
}

// triangleStats prices costHypergraph's edges (big(X,Y), mid(Y,Z),
// small(Z,X)) with their variables and the given distinct count for every
// variable of every edge.
func triangleStats(h *hypergraph.Hypergraph, rows []float64, distinct float64) *stats.EdgeStats {
	es := &stats.EdgeStats{Rows: rows}
	for e := 0; e < h.NumEdges(); e++ {
		vars := h.Edge(e).Elems()
		d := make([]float64, len(vars))
		for i := range d {
			d[i] = distinct
		}
		es.Vars = append(es.Vars, vars)
		es.Distinct = append(es.Distinct, d)
	}
	return es
}

// The join estimate undercuts the AGM bound exactly when the λ relations
// share a variable: big ⋈ mid on Y with 500 distinct values in big (mid's
// count clamps to its 100 rows) estimates to 1000·100/500, far below the
// product the AGM bound charges. The χ distinct cap then bounds
// the node table further.
func TestNodeCostJoinEstimate(t *testing.T) {
	h := costHypergraph()
	es := triangleStats(h, []float64{1000, 100, 10}, 500)
	n := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1)}
	if got, want := NodeCost(n, es), 1000*100/500.0; got != want {
		t.Errorf("joined NodeCost = %g, want %g", got, want)
	}
	// the χ cap: Π d(v) over X, Y, Z with 5 distinct values each
	capped := triangleStats(h, []float64{1000, 100, 10}, 5)
	if got := NodeEstimate(n, capped); got != 125 {
		t.Errorf("NodeEstimate = %g, want the χ cap 125", got)
	}
	// an unseen χ column disables the cap
	capped.Distinct[1][1] = 0 // mid's Z
	if got := NodeEstimate(n, capped); got != NodeCost(n, capped) {
		t.Errorf("NodeEstimate with an unseen χ column = %g, want NodeCost %g", got, NodeCost(n, capped))
	}
}

// A λ whose edges share no variable prices at the full product and is
// reported as a cross product; a connected λ is not.
func TestCrossProduct(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("r1", "X1", "X2")
	h.AddEdge("r2", "X2", "X3")
	h.AddEdge("r3", "X3", "X4")
	h.AddEdge("r4", "X4", "X1")
	joined := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1)}
	cross := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(1, 3)}
	if CrossProduct(h, joined) {
		t.Error("r1 ⋈ r2 reported as a cross product")
	}
	if !CrossProduct(h, cross) {
		t.Error("r2 × r4 not reported as a cross product")
	}
	if CrossProduct(h, &Node{Lambda: bitset.Of(2)}) {
		t.Error("a single-edge λ reported as a cross product")
	}
	es := &stats.EdgeStats{Rows: []float64{2000, 2000, 2000, 2000}}
	for e := 0; e < h.NumEdges(); e++ {
		es.Vars = append(es.Vars, h.Edge(e).Elems())
		es.Distinct = append(es.Distinct, []float64{500, 500})
	}
	if got, want := NodeCost(cross, es), 2000*2000.0; got != want {
		t.Errorf("cross-product NodeCost = %g, want %g", got, want)
	}
	if got, want := NodeCost(joined, es), 2000*2000/500.0; got != want {
		t.Errorf("joined NodeCost = %g, want %g", got, want)
	}
}
