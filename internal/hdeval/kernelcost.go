package hdeval

import (
	"hypertree/internal/decomp"
	"hypertree/internal/stats"
)

// This file is the cost model behind the auto kernel: per bag, the chain
// (left-deep hash joins) and leapfrog (columnar triejoin) kernels are
// priced against the per-edge row and distinct-count estimates the planner
// extracted from its statistics snapshot, and the cheaper kernel runs. The
// constants were calibrated against the E27/E29 benchmark measurements when
// hash-join keys were byte strings: one string map insert or lookup per
// build, probe and dedup row, about 450 ns per input row of a 100k ⋈ 100k
// join. That made a row through a hash-join step roughly an order of
// magnitude dearer than a cell through the counting-sort encoder, so
// leapfrog wins any bag large enough to amortise its fixed per-bag setup —
// allocating the columnar buffers, dictionaries and iterator state — while
// the chain keeps the tiny bags where that setup dominates everything.
// Single-relation bags are priced too (the chain pays a hash-dedup
// projection, leapfrog a sorted re-emit), which is where the arity rule
// loses the most: it hardwired such bags to the chain regardless of size.
// Without usable statistics the decision falls back to the arity rule.
//
// Join keys are now integers (internal/relation/keyindex.go): the same
// join costs about 65 ns per input row (BenchmarkTableJoin, 2-core Xeon VM,
// go1.24.0), and a semijoin about 32 ns per row, so costHashRow over-prices
// the chain. The constants are deliberately unchanged, which keeps every
// auto decision as it was; recalibrating them from the benchmark ledger is
// still pending.
const (
	// costHashRow prices one row through a hash join step (build, probe,
	// emit, or the dedup projection), relative to costLfEncodeCell.
	costHashRow = 12.0
	// costLfEncodeCell prices one (row, column) cell through the columnar
	// dictionary/counting-sort encoder.
	costLfEncodeCell = 1.0
	// costLfEmitRow prices one emitted leapfrog row per trie level.
	costLfEmitRow = 2.0
	// costLfSetup is the fixed per-bag price of standing the leapfrog
	// kernel up (columnar buffers, dictionaries, iterators) — the term
	// that hands tiny bags to the chain.
	costLfSetup = 4000.0
)

// kernelFor names the decided kernel for node n, qualified with why:
// "chain"/"leapfrog" (forced policies), "(cost)" for a statistics-priced
// auto decision, "(arity)" for the statistics-free fallback rule, and
// "chain(fallback)" when the policy chose leapfrog but the node has no
// leapfrog plan (a χ variable outside var(λ)). Decisions are recorded per
// node in NodeInfo.Kernel, on every node span, and in Plan.Explain.
func (e *Evaluator) decideKernel(n *decomp.Node) {
	use, why := e.chooseKernel(n)
	if use {
		if p := e.lfPlanFor(n); p != nil {
			e.lfNodes[n] = p
			e.kernelOf[n] = string(KernelLeapfrog) + why
			return
		}
		// The policy wanted leapfrog but the node cannot run it: fall back
		// to the chain, observably (counted, and named in trace + explain).
		e.lfFallbacks++
		e.kernelOf[n] = string(KernelChain) + "(fallback)"
		return
	}
	e.kernelOf[n] = string(KernelChain) + why
}

// chooseKernel decides whether node n should run the leapfrog kernel under
// the evaluator's policy, returning the qualifier for the decision record.
func (e *Evaluator) chooseKernel(n *decomp.Node) (lf bool, why string) {
	switch e.kernel {
	case KernelLeapfrog:
		return true, ""
	case KernelAuto:
		lam := e.lamOrder[n]
		if lf, ok := e.costDecision(n, lam); ok {
			return lf, "(cost)"
		}
		return len(lam) >= 3 || (len(lam) >= 2 && n.Weights != nil), "(arity)"
	}
	return false, ""
}

// costDecision prices node n's λ-join under both kernels. ok is false when
// the evaluator carries no usable per-edge statistics for the bag, in which
// case the caller falls back to the arity rule.
func (e *Evaluator) costDecision(n *decomp.Node, lam []int) (lf, ok bool) {
	es := e.edgeStats
	rels := make([]stats.EdgeRel, 0, len(lam))
	encodeCells := 0.0
	levels := map[int]bool{}
	for _, e2 := range lam {
		if !es.HasDistinct(e2) || e2 >= len(es.Rows) || e2 >= len(es.Vars) {
			return false, false
		}
		r := es.Rel(e2)
		for _, v := range r.Vars {
			levels[v] = true
		}
		rels = append(rels, r)
		encodeCells += r.Rows * float64(len(r.Vars))
	}
	joinSize, work, ok := stats.ChainEstimate(rels)
	if !ok {
		return false, false
	}
	// Leapfrog never emits more than the AGM bound r^fhw; under a
	// fractional cover the certificate caps the size estimate.
	size := joinSize
	if n.Weights != nil {
		if agm := decomp.AGMBound(n, es); agm < size {
			size = agm
		}
	}
	chainCost := costHashRow * work
	lfCost := costLfSetup + costLfEncodeCell*encodeCells + costLfEmitRow*float64(len(levels))*size
	return lfCost < chainCost, true
}
