package hdeval

import (
	"fmt"
	"math"

	"hypertree/internal/decomp"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// This file selects and plans the intra-bag join kernel. Each decomposition
// node's table is the χ-projection of its λ-join; the chain kernel computes
// it as a left-deep sequence of binary hash joins followed by a dedup
// projection, while the leapfrog kernel (relation.LeapfrogJoin) encodes the
// λ relations into sorted columnar tries and intersects them variable by
// variable — worst-case optimal with respect to the AGM bound, which the
// node's fractional cover weights certify as r^fhw. The variable order
// keeps every prefix connected in the bag's λ (lfPlanFor): a level whose
// variable shares no λ edge with the levels above it intersects nothing and
// enumerates a cross product. Output (χ) variables come as early as that
// allows, so the output mostly streams out sorted and distinct, and
// existential variables go by descending fractional cover weight
// (most-covered, hence most selective to intersect, first).

// Kernel names an intra-bag λ-join algorithm.
type Kernel string

// The available kernels. KernelChain is the left-deep binary hash-join
// chain (the historical default); KernelLeapfrog forces the columnar
// leapfrog-triejoin on every node; KernelAuto decides per bag. With
// statistics attached (NewEvaluatorCost) the auto decision is cost-based:
// each bag's λ-join is priced as a hash chain versus a leapfrog
// encode+enumerate from per-edge row and distinct-count estimates, capped
// by the AGM bound under fractional covers (see kernelcost.go). Without
// usable statistics auto falls back to the arity rule — leapfrog when the
// bag joins at least three relations, or at least two under a fractional
// cover — and every decision is recorded per node (NodeInfo.Kernel, span
// kernel attributes, Plan.Explain).
const (
	KernelChain    Kernel = "chain"
	KernelLeapfrog Kernel = "leapfrog"
	KernelAuto     Kernel = "auto"
)

// ParseKernel parses a kernel name; the empty string means KernelChain.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case "":
		return KernelChain, nil
	case KernelChain, KernelLeapfrog, KernelAuto:
		return Kernel(s), nil
	}
	return "", fmt.Errorf("hdeval: unknown join kernel %q (want chain, leapfrog or auto)", s)
}

// lfNode is the precomputed leapfrog plan of one decomposition node: the
// global variable order, the output prefix length nOut (through the last χ
// variable), and chi, the χ variables in order sequence. nOut > len(chi)
// means existential variables are interleaved into the output prefix, and
// the join output must be projected onto chi.
type lfNode struct {
	order []int
	nOut  int
	chi   []int
}

// table returns the node table from a join output over order[:nOut]: the
// output itself — sorted and distinct — when no existential variable is
// interleaved, otherwise its deduplicating projection onto chi.
func (lf *lfNode) table(out *relation.Table) *relation.Table {
	if lf.nOut == len(lf.chi) {
		return out
	}
	return out.Project(lf.chi)
}

// Kernel returns the evaluator's configured join kernel.
func (e *Evaluator) Kernel() Kernel { return e.kernel }

// lfPlanFor computes node n's leapfrog variable order, or nil when the node
// must fall back to the chain (a χ variable outside var(λ) — impossible on
// complete decompositions, but the chain is always safe). Every prefix of
// the order is connected in the λ hypergraph of the bag — each variable
// after the first shares a λ edge with an earlier one — so no level ever
// enumerates a cross product of unrelated values. Within that constraint χ
// variables come as early as possible, in chiElems order (parent-shared
// first, so the output keeps the reducer's merge-semijoin prefix); when no
// χ variable connects to the prefix, the connecting existential variable
// of largest total fractional cover weight (weight 1 per covering edge on
// integral nodes; ties toward the smaller id) is interleaved — the
// r(X,Y) ⋈ s(Y,Z) → {X,Z} case, where the χ-first order would enumerate X×Z.
// Only a λ that is itself disconnected starts a new component, with its
// first unplaced χ variable.
func (e *Evaluator) lfPlanFor(n *decomp.Node) *lfNode {
	lam := e.lamOrder[n]
	weight := map[int]float64{}
	for _, e2 := range lam {
		w := 1.0
		if n.Weights != nil {
			w = n.Weights[e2]
		}
		e.HD.H.Edge(e2).ForEach(func(v int) { weight[v] += w })
	}
	chi := e.chiElems[n]
	inChi := map[int]bool{}
	for _, v := range chi {
		if _, ok := weight[v]; !ok {
			return nil
		}
		inChi[v] = true
	}
	placed := map[int]bool{}
	adjacent := map[int]bool{}
	order := make([]int, 0, len(weight))
	lf := &lfNode{}
	// heaviest returns the unplaced existential variable of largest weight
	// (ties to the smaller id), restricted to the prefix's neighbours when
	// connected is set; -1 if there is none.
	heaviest := func(connected bool) int {
		best := -1
		for v, w := range weight {
			if placed[v] || inChi[v] || (connected && !adjacent[v]) {
				continue
			}
			if best < 0 || w > weight[best] || (w == weight[best] && v < best) {
				best = v
			}
		}
		return best
	}
	for len(order) < len(weight) {
		next := -1
		for _, v := range chi {
			if !placed[v] && (len(order) == 0 || adjacent[v]) {
				next = v
				break
			}
		}
		if next < 0 {
			next = heaviest(true)
		}
		if next < 0 { // λ is disconnected: open the next component
			for _, v := range chi {
				if !placed[v] {
					next = v
					break
				}
			}
		}
		if next < 0 {
			next = heaviest(false)
		}
		placed[next] = true
		order = append(order, next)
		if inChi[next] {
			lf.chi = append(lf.chi, next)
			lf.nOut = len(order)
		}
		for _, e2 := range lam {
			if edge := e.HD.H.Edge(e2); edge.Has(next) {
				edge.ForEach(func(v int) { adjacent[v] = true })
			}
		}
	}
	lf.order = order
	return lf
}

// capHint is the leapfrog output pre-size for node n: the planner's
// estimate of the node table (EstRows; 0 without statistics, leaving the
// output to grow). The hint sizes a buffer, it does not limit results. The
// AGM bound r^fhw is a worst case: as a hint it reserved a megabyte on every
// execution of a 2000-row triangle whose table holds a few dozen rows.
func capHint(n *decomp.Node) int {
	const maxHint = 1 << 22
	return int(math.Min(n.EstRows, maxHint))
}

// encodedLambda returns node n's λ relations in Columnar form under lf's
// variable order, through the evaluator's encoding cache: within one
// database generation each (edge, order) pair is encoded once — across
// bags sharing the relation and across repeated executions under a warm
// plan cache. On a cache hit the atom is not even bound (the column
// convention comes from the atom's structure alone).
func (b *rootBuilder) encodedLambda(lam []int, lf *lfNode) ([]*relation.Columnar, error) {
	cols := make([]*relation.Columnar, len(lam))
	for i, e2 := range lam {
		vars, err := atomBindVars(b.e.Q, b.e.edgeToAtom[e2])
		if err != nil {
			return nil, err
		}
		sub := relation.SubOrder(lf.order, vars)
		e2 := e2
		cols[i], err = b.e.enc.get(b.db, encKey{edge: e2, order: orderKey(sub)}, func() (*relation.Columnar, error) {
			t, err := b.bind(e2)
			if err != nil {
				return nil, err
			}
			return relation.NewColumnar(t, sub), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// materializeLeapfrog is the leapfrog-kernel form of materialize: encode
// the λ relations (through the plan-level cache), run the multiway
// intersection over the node's precomputed variable order, and take the
// output prefix as the node table (lfNode.table), with the sorted
// encoding the reducer merge-semijoins over.
func (b *rootBuilder) materializeLeapfrog(n *decomp.Node, lf *lfNode) (*relation.Table, *relation.Columnar, error) {
	sp := b.tr.StartSpan(obs.SpanNode)
	sp.SetKernel(b.e.kernelOf[n])
	lam := b.e.lamOrder[n]
	cols, err := b.encodedLambda(lam, lf)
	if err != nil {
		return nil, nil, err
	}
	joined := relation.LeapfrogJoinColumnar(cols, lf.order, lf.nOut, capHint(n))
	out := lf.table(joined)
	// The reducer merge-semijoins over a sorted encoding in the table's real
	// column order: free when the join output is the table, one sort when
	// the projection reshuffled it.
	var enc *relation.Columnar
	if out == joined {
		enc = relation.NewColumnarSorted(out)
	} else {
		enc = relation.NewColumnar(out, lf.chi)
	}
	sp.AddSteps(int64(len(lam) - 1))
	if id, ok := b.e.nodeID[n]; ok {
		sp.SetNode(id)
		sp.SetLabel(b.e.infos[id].Label)
	}
	sp.SetEst(n.EstRows)
	sp.SetRows(out.Rows())
	sp.End()
	return out, enc, nil
}
