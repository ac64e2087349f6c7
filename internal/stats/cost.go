package stats

import "math"

// This file is the bag-level estimate behind cost-based planning. The
// planner extracts, once per compile, per-edge row counts, the variables
// each edge binds and their distinct counts from a Stats snapshot into one
// EdgeStats value. Every layer prices a bag's λ-join from it: the
// decomposition engines and the race (decomp.NodeCost, which takes the
// smaller of this estimate and the AGM bound), the evaluator's λ order, and
// the auto kernel's hash-chain price.

// EdgeStats carries the per-hyperedge estimates the planner extracts from a
// Stats snapshot: Rows[e] is the estimated cardinality of edge e's bound
// atom table, Vars[e] lists the variables the edge binds (ascending), and
// Distinct[e][i] is the distinct-value count of Vars[e][i] there (repeated
// variables keep the minimum across their columns; ≤ 0 means the snapshot
// has never seen the column). Any slice may be shorter than the edge count;
// a missing Rows entry counts as one row, a missing Vars entry as an edge
// that shares no variable, and a missing Distinct entry as "no distinct
// counts" — which the auto kernel reads as "no statistics".
type EdgeStats struct {
	// Rows is the per-edge cardinality estimate.
	Rows []float64
	// Vars is the per-edge list of bound variables, ascending.
	Vars [][]int
	// Distinct is the per-edge distinct count of each Vars entry.
	Distinct [][]float64
}

// RowsOf returns edge e's row estimate clamped to ≥ 1, so an empty or
// unknown relation cannot zero out a product of estimates. es may be nil.
func (es *EdgeStats) RowsOf(e int) float64 {
	if es == nil || e >= len(es.Rows) || es.Rows[e] < 1 {
		return 1
	}
	return es.Rows[e]
}

// HasDistinct reports whether es carries distinct counts for edge e.
func (es *EdgeStats) HasDistinct(e int) bool {
	return es != nil && e < len(es.Distinct) && es.Distinct[e] != nil
}

// Rel returns edge e as a join input, its row count clamped as in RowsOf.
func (es *EdgeStats) Rel(e int) EdgeRel {
	r := EdgeRel{Rows: es.RowsOf(e)}
	if es != nil && e < len(es.Vars) {
		r.Vars = es.Vars[e]
	}
	if es.HasDistinct(e) {
		r.Distinct = es.Distinct[e]
	}
	return r
}

// ConnectedOrder returns lam in join order: the edge of fewest rows first,
// then repeatedly the edge of fewest rows among those sharing a variable
// with the edges already placed, so a prefix is only ever extended by a
// cross product when no remaining edge connects to it. Ties go to the
// lower edge id. lam itself is not modified.
func (es *EdgeStats) ConnectedOrder(lam []int) []int {
	return es.connectedOrder(lam, make([]int, len(lam)))
}

// connectedOrder is ConnectedOrder writing into out (len(out) == len(lam)).
func (es *EdgeStats) connectedOrder(lam, out []int) []int {
	copy(out, lam)
	for k := range out {
		// out[:k] is placed; pick the next edge from out[k:].
		best, bestConn := k, false
		for i := k; i < len(out); i++ {
			e := out[i]
			conn := k > 0 && es.sharesPrefix(e, out[:k])
			if i > k {
				if conn != bestConn {
					if !conn {
						continue
					}
				} else if r, rb := es.RowsOf(e), es.RowsOf(out[best]); r > rb || (r == rb && e > out[best]) {
					continue
				}
			}
			best, bestConn = i, conn
		}
		out[k], out[best] = out[best], out[k]
	}
	return out
}

// sharesPrefix reports whether edge e binds a variable of an edge in
// placed.
func (es *EdgeStats) sharesPrefix(e int, placed []int) bool {
	if es == nil || e >= len(es.Vars) {
		return false
	}
	for _, v := range es.Vars[e] {
		for _, p := range placed {
			if p >= len(es.Vars) {
				continue
			}
			for _, w := range es.Vars[p] {
				if v == w {
					return true
				}
			}
		}
	}
	return false
}

// JoinEstimate is the System-R estimate of the natural join of the λ edges
// lam, taken in ConnectedOrder (see ChainEstimate). It distinguishes a
// join from a cross product, which the AGM bound cannot: two relations
// sharing a variable of d distinct values estimate to |A|·|B|/d, two that
// share nothing to |A|·|B|. An empty lam estimates to 1 (the 0-ary join).
func (es *EdgeStats) JoinEstimate(lam []int) float64 {
	if len(lam) == 0 {
		return 1
	}
	// λ labels are small: keep the scratch space on the stack.
	var orderBuf [8]int
	var relBuf [8]EdgeRel
	order := orderBuf[:0]
	rels := relBuf[:0]
	if len(lam) > len(orderBuf) {
		order = make([]int, 0, len(lam))
		rels = make([]EdgeRel, 0, len(lam))
	}
	for _, e := range es.connectedOrder(lam, order[:len(lam)]) {
		rels = append(rels, es.Rel(e))
	}
	size, _, _ := ChainEstimate(rels)
	return size
}

// EdgeRel describes one input of a multiway join for cost estimation: its
// estimated cardinality, the variables it binds, and their distinct counts
// (Distinct[i] for Vars[i]). A missing or non-positive distinct count
// defaults to Rows (every row distinct — the conservative,
// selectivity-free assumption).
type EdgeRel struct {
	// Rows is the estimated cardinality of the input.
	Rows float64
	// Vars are the variables the input binds.
	Vars []int
	// Distinct holds the distinct-value count of each Vars entry.
	Distinct []float64
}

// distinctOf returns r's distinct count for its i-th variable, defaulted to
// Rows and clamped to [1, Rows].
func (r EdgeRel) distinctOf(i int) float64 {
	rows := math.Max(r.Rows, 1)
	if i >= len(r.Distinct) || r.Distinct[i] <= 0 {
		return rows
	}
	return math.Min(math.Max(r.Distinct[i], 1), rows)
}

// ChainEstimate prices a left-deep hash-join chain over rels in the given
// order. It returns the estimated final join cardinality and the chain's
// total work — the summed sizes of every probe side, build side and
// intermediate result — using the System-R estimate
// |A ⋈ B| = |A|·|B| / Π_v max(d_A(v), d_B(v)) over the shared variables,
// with per-variable distinct counts carried forward as minima. ok is false
// when rels is empty or an input has no usable row estimate (Rows < 0).
func ChainEstimate(rels []EdgeRel) (joinSize, work float64, ok bool) {
	if len(rels) == 0 {
		return 0, 0, false
	}
	for i := range rels {
		if rels[i].Rows < 0 {
			return 0, 0, false
		}
	}
	// dv holds the carried (variable, distinct count) pairs of the prefix;
	// bags bind a handful of variables, so a linear scan beats a map.
	type varDistinct struct {
		v int
		d float64
	}
	acc := rels[0].Rows
	dv := make([]varDistinct, 0, 8)
	for i, v := range rels[0].Vars {
		dv = append(dv, varDistinct{v, rels[0].distinctOf(i)})
	}
	work = acc
	for _, r := range rels[1:] {
		out := acc * r.Rows
		for i, v := range r.Vars {
			d1 := r.distinctOf(i)
			j := 0
			for j < len(dv) && dv[j].v != v {
				j++
			}
			if j == len(dv) {
				dv = append(dv, varDistinct{v, d1})
				continue
			}
			if m := math.Max(dv[j].d, d1); m > 1 {
				out /= m
			}
			if d1 < dv[j].d {
				dv[j].d = d1
			}
		}
		work += acc + r.Rows + out
		acc = out
	}
	return acc, work, true
}
