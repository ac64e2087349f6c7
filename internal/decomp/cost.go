package decomp

import (
	"math"

	"hypertree/internal/hypergraph"
	"hypertree/internal/stats"
)

// This file is the cost model of the planner: the estimate that ranks
// decompositions of equal fractional width by the database they will
// actually run against. Lemma 4.6 materialises each node p as the
// χ-projection of the join of the relations in λ(p); by the AGM bound that
// table holds at most Π_{R∈λ(p)} |R|^{w(R)} tuples for any fractional edge
// cover w of χ(p) (w ≡ 1 on integral decompositions). The bound is a worst
// case and blind to how the λ relations connect: it charges a join and a
// cross product of the same relations alike. The planner therefore prices a
// node at the smaller of the AGM bound and the System-R estimate of the
// λ-join (stats.EdgeStats.JoinEstimate), which divides by the distinct
// counts of the variables the relations share. The per-edge statistics are
// indexed by hypergraph edge id and derived once per compile from an
// internal/stats snapshot; nil statistics make every node cost 1,
// collapsing cost ranking back to width ranking.

// NodeCost returns the estimated cost of materialising node n against the
// per-edge statistics es: min(Π_{e∈λ} max(rows[e], 1)^w(e), JoinEstimate(λ)),
// where w(e) is the node's fractional λ weight when Weights is set and 1
// otherwise. es nil prices every node at 1.
func NodeCost(n *Node, es *stats.EdgeStats) float64 {
	if es == nil {
		return 1
	}
	return math.Min(AGMBound(n, es), es.JoinEstimate(n.Lambda.Elems()))
}

// AGMBound returns the AGM output bound r^fhw of node n against the
// per-edge row estimates: Π_{e∈λ} max(rows[e], 1)^w(e), with w the node's
// fractional cover weights (1 per edge on integral decompositions). By the
// AGM inequality this bounds the node's materialised table — the
// χ-projection of the λ-join — whatever its λ edges share; the auto kernel
// also caps its leapfrog output estimate with it under fractional weights.
func AGMBound(n *Node, es *stats.EdgeStats) float64 {
	bound := 1.0
	n.Lambda.ForEach(func(e int) {
		w := 1.0
		if n.Weights != nil {
			w = n.Weights[e]
		}
		bound *= math.Pow(es.RowsOf(e), w)
	})
	return bound
}

// NodeEstimate is the estimated cardinality of node n's table: NodeCost
// further capped by Π_{v∈χ} d(v), where d(v) is the smallest distinct count
// of v across the λ edges binding it. The table is a set of χ-tuples, and
// every surviving binding of v appears in every λ relation containing v, so
// it can never hold more. A χ variable no λ edge has distinct counts for
// disables the cap.
func NodeEstimate(n *Node, es *stats.EdgeStats) float64 {
	est := NodeCost(n, es)
	if es == nil {
		return est
	}
	bound := 1.0
	ok := true
	n.Chi.ForEach(func(v int) {
		if !ok {
			return
		}
		d := 0.0
		n.Lambda.ForEach(func(e int) {
			if !es.HasDistinct(e) || e >= len(es.Vars) {
				return
			}
			for i, u := range es.Vars[e] {
				if u == v && i < len(es.Distinct[e]) {
					if c := es.Distinct[e][i]; c > 0 && (d == 0 || c < d) {
						d = c
					}
				}
			}
		})
		if d <= 0 {
			ok = false // v unseen in the statistics: no bound through it
			return
		}
		bound *= d
	})
	if ok && bound < est {
		return bound
	}
	return est
}

// CostWith returns the total estimated cost of evaluating the
// decomposition: the sum of NodeCost over all nodes. This is the quantity
// the adaptive race and the heuristic engines minimise among plans of equal
// fractional width — the per-node materialisations dominate evaluation (the
// semijoin passes are linear in the node tables), so their summed estimates
// track wall-clock well enough to rank same-width plans.
func (d *Decomposition) CostWith(es *stats.EdgeStats) float64 {
	total := 0.0
	for _, n := range d.Nodes() {
		total += NodeCost(n, es)
	}
	return total
}

// AnnotateCosts stamps every node's EstRows with its NodeEstimate under the
// given per-edge statistics, so downstream layers (evaluation ordering,
// Plan.Explain) read the estimates off the tree instead of recomputing
// them. It returns the sum of the stamped estimates.
func (d *Decomposition) AnnotateCosts(es *stats.EdgeStats) float64 {
	total := 0.0
	for _, n := range d.Nodes() {
		n.EstRows = NodeEstimate(n, es)
		total += n.EstRows
	}
	return total
}

// CrossProduct reports whether node n's λ edges split into groups that
// share no variable of h, so the λ-join multiplies the groups out before
// the χ-projection can shrink anything. Plan.Explain marks such bags.
func CrossProduct(h *hypergraph.Hypergraph, n *Node) bool {
	lam := n.Lambda.Elems()
	if len(lam) < 2 {
		return false
	}
	reached := h.Edge(lam[0]).Clone()
	rest := lam[1:]
	for grew := true; grew && len(rest) > 0; {
		grew = false
		kept := rest[:0]
		for _, e := range rest {
			if h.Edge(e).Intersects(reached) {
				reached = reached.Union(h.Edge(e))
				grew = true
			} else {
				kept = append(kept, e)
			}
		}
		rest = kept
	}
	return len(rest) > 0
}
