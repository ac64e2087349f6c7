// Package hdeval evaluates conjunctive queries through hypertree
// decompositions, implementing the Lemma 4.6 transformation: given
// ⟨Q, DB, HD⟩ with HD of width k, each decomposition node p is materialised
// as the projection onto χ(p) of the join of the relations in λ(p) — a table
// of size O(r^k) — and the decomposition tree becomes a join tree of an
// acyclic instance evaluated with Yannakakis' algorithm (Theorems 4.7, 4.8).
//
// The Evaluator type is the compile-once form of the construction: the
// decomposition completion (Lemma 4.4), the edge→atom mapping and the head
// variables are computed once, and the resulting skeleton can then be
// executed against any database, concurrently and under a context. A naive
// join baseline is provided for the evaluation experiments.
package hdeval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/stats"
	"hypertree/internal/yannakakis"
)

// Evaluator is the precomputed, database-independent part of the Lemma 4.6
// evaluation: a completed decomposition plus the query analysis needed to
// bind relations. An Evaluator is immutable after construction and safe for
// concurrent use by multiple goroutines (the setting of Theorem 4.7, where
// one decomposition is amortised across many databases).
type Evaluator struct {
	Q  *cq.Query
	HD *decomp.Decomposition // completed per Lemma 4.4

	edgeToAtom  []int
	head        []int
	chiElems    map[*decomp.Node][]int
	edgeStats   *stats.EdgeStats         // per-edge rows, vars and distincts (nil: no statistics)
	lamOrder    map[*decomp.Node][]int   // λ edges in evaluation order (connected, ascending estimate)
	nodeID      map[*decomp.Node]int     // preorder index over the completed tree
	infos       []NodeInfo               // per-node identity/estimate, indexed by nodeID
	kernel      Kernel                   // intra-bag join kernel policy
	lfNodes     map[*decomp.Node]*lfNode // nodes running the leapfrog kernel, with their orders
	kernelOf    map[*decomp.Node]string  // per-node kernel decision, qualified (see decideKernel)
	lfFallbacks int                      // nodes where the policy chose leapfrog but no plan exists
	enc         encCache                 // plan-level Columnar encoding cache (interior mutability)
}

// NodeInfo identifies one node of the evaluator's completed decomposition
// tree for observability: traces reference nodes by ID, and EXPLAIN ANALYZE
// renders the tree from these records. IDs are preorder indices over the
// completed tree — the tree execution actually walks, which the completion
// (Lemma 4.4) may have extended beyond the decomposition the plan reports.
type NodeInfo struct {
	// ID is the node's preorder index; span Node fields carry it.
	ID int
	// Depth is the node's depth under the root (root = 0), for indenting.
	Depth int
	// Label renders the node's χ and λ ("χ{X,Y} λ{r,s}").
	Label string
	// EstRows is the planner's estimated cardinality of the node table
	// (0 when the plan carries no statistics).
	EstRows float64
	// Kernel is the decided intra-bag join kernel, qualified with how the
	// decision was made: "chain"/"leapfrog" under a forced policy,
	// "…(cost)" for a statistics-priced auto decision, "…(arity)" for the
	// statistics-free fallback rule, and "chain(fallback)" when the policy
	// chose leapfrog but the node has no leapfrog plan.
	Kernel string
	// CrossProduct marks a node whose λ edges are not connected through
	// shared variables (decomp.CrossProduct).
	CrossProduct bool
}

// NodeInfos returns the completed tree's node records in preorder. The
// slice is shared and must not be mutated.
func (e *Evaluator) NodeInfos() []NodeInfo { return e.infos }

// NewEvaluator analyses q and completes hd once, returning the reusable
// evaluation skeleton. The head variables are validated here, so execution
// can no longer fail on an unsafe head.
func NewEvaluator(q *cq.Query, hd *decomp.Decomposition) (*Evaluator, error) {
	return NewEvaluatorCost(q, hd, nil, KernelChain)
}

// NewEvaluatorCost is NewEvaluator with per-edge statistics and an
// explicit intra-bag join kernel policy (see Kernel). es steers the
// evaluation order: each node's λ-join runs connected-first in ascending
// order of estimated relation cardinality (stats.EdgeStats.ConnectedOrder:
// small relations first keep the left-deep intermediates small, and an
// edge sharing a variable with the joined prefix always goes before one
// that would multiply it out), and every node's children are reordered by
// ascending estimated node cardinality, so the bottom-up semijoin passes
// shrink each table against its most selective child first. Its distinct
// counts arm the cost-aware auto kernel — each bag's λ-join is priced as a
// hash chain vs a leapfrog encode+enumerate and the cheaper kernel is
// decided per node (see kernelcost.go). es nil orders λ connected-first by
// edge id and leaves auto on the arity rule, as does an es without
// distinct counts. Neither the orders nor the kernel change any produced
// table — joins and the semijoin reductions commute — only the work to
// produce it.
func NewEvaluatorCost(q *cq.Query, hd *decomp.Decomposition, es *stats.EdgeStats, kernel Kernel) (*Evaluator, error) {
	if hd == nil || hd.H == nil || (hd.Root == nil && hd.H.NumEdges() > 0) {
		return nil, fmt.Errorf("hdeval: nil decomposition")
	}
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
	}
	complete := hd.Complete()
	_, edgeToAtom := q.Hypergraph()
	e := &Evaluator{
		Q:          q,
		HD:         complete,
		edgeToAtom: edgeToAtom,
		head:       head,
		chiElems:   map[*decomp.Node][]int{},
		edgeStats:  es,
		lamOrder:   map[*decomp.Node][]int{},
		kernel:     kernel,
		lfNodes:    map[*decomp.Node]*lfNode{},
		kernelOf:   map[*decomp.Node]string{},
	}
	if es != nil {
		// The completion may have added fresh ⟨χ=var(e), λ={e}⟩ nodes with no
		// estimate yet; annotate only those, preserving the EstRows the
		// compile pipeline stamped on the original nodes — child ordering
		// must read the same numbers Explain reports.
		for _, n := range complete.Nodes() {
			if n.EstRows == 0 {
				n.EstRows = decomp.NodeEstimate(n, es)
			}
		}
	}
	// λ ordering needs every edge's variables even without statistics.
	order := es
	if es == nil || es.Vars == nil {
		order = &stats.EdgeStats{Vars: make([][]int, complete.H.NumEdges())}
		if es != nil {
			order.Rows = es.Rows
		}
		for e2 := range order.Vars {
			order.Vars[e2] = complete.H.Edge(e2).Elems()
		}
	}
	// Parent links steer each node's χ column order: the variables shared
	// with the parent come first (ascending), the rest after (ascending).
	// This exposes the reducer's semijoin variables as a sorted column
	// prefix, which is what makes the merge-semijoin kernel applicable to
	// the up- and down-pass (see relation.MergeSemijoin); the reordering is
	// answer-neutral — node tables are sets keyed by variable, and the head
	// projection fixes the final column order.
	parent := map[*decomp.Node]*decomp.Node{}
	var link func(n *decomp.Node)
	link = func(n *decomp.Node) {
		for _, c := range n.Children {
			parent[c] = n
			link(c)
		}
	}
	if complete.Root != nil {
		link(complete.Root)
	}
	for _, n := range complete.Nodes() {
		chi := n.Chi.Elems()
		if p := parent[n]; p != nil {
			shared := make([]int, 0, len(chi))
			rest := make([]int, 0, len(chi))
			for _, v := range chi {
				if p.Chi.Has(v) {
					shared = append(shared, v)
				} else {
					rest = append(rest, v)
				}
			}
			chi = append(shared, rest...)
		}
		e.chiElems[n] = chi
		e.lamOrder[n] = order.ConnectedOrder(n.Lambda.Elems())
		if es != nil {
			sort.SliceStable(n.Children, func(i, j int) bool {
				return n.Children[i].EstRows < n.Children[j].EstRows
			})
		}
		e.decideKernel(n)
	}
	// Node identity for tracing: preorder over the final (post-reorder)
	// tree, so span Node fields and EXPLAIN ANALYZE agree on which node is
	// which forever after.
	e.nodeID = map[*decomp.Node]int{}
	var index func(n *decomp.Node, depth int)
	index = func(n *decomp.Node, depth int) {
		e.nodeID[n] = len(e.infos)
		e.infos = append(e.infos, NodeInfo{
			ID:           len(e.infos),
			Depth:        depth,
			Label:        e.nodeLabel(n),
			EstRows:      n.EstRows,
			Kernel:       e.kernelOf[n],
			CrossProduct: decomp.CrossProduct(complete.H, n),
		})
		for _, c := range n.Children {
			index(c, depth+1)
		}
	}
	if complete.Root != nil {
		index(complete.Root, 0)
	}
	return e, nil
}

// LeapfrogFallbacks returns how many nodes the kernel policy selected for
// leapfrog but had to fall back to the chain on (no leapfrog plan exists —
// a χ variable outside var(λ), impossible on complete decompositions).
func (e *Evaluator) LeapfrogFallbacks() int { return e.lfFallbacks }

// nodeLabel renders a node's χ and λ sets by name.
func (e *Evaluator) nodeLabel(n *decomp.Node) string {
	return fmt.Sprintf("χ{%s} λ{%s}",
		strings.Join(e.HD.H.VertexNames(n.Chi), ","),
		strings.Join(e.HD.H.EdgeNames(n.Lambda), ","))
}

// Head returns the validated head variables of the query.
func (e *Evaluator) Head() []int { return append([]int(nil), e.head...) }

// Root materialises the acyclic instance of Lemma 4.6 for db: one table per
// decomposition node (the χ-projection of the λ-join), arranged along the
// decomposition tree. Ground atoms of the query (variable-free, hence absent
// from H(Q)) are evaluated separately and, if false, empty the root.
func (e *Evaluator) Root(ctx context.Context, db *relation.Database) (*yannakakis.Node, error) {
	return e.RootWorkers(ctx, db, 1)
}

// RootWorkers is Root with the per-node λ-join materialisations of
// independent subtrees running on up to workers goroutines — the node tables
// of Lemma 4.6 are mutually independent (each depends only on db), so the
// decomposition tree fans out embarrassingly. workers ≤ 1 is the sequential
// path.
func (e *Evaluator) RootWorkers(ctx context.Context, db *relation.Database, workers int) (*yannakakis.Node, error) {
	if e.HD.Root == nil { // no variable atoms: nothing to materialise
		ok, err := yannakakis.GroundAtomsHold(db, e.Q)
		if err != nil {
			return nil, err
		}
		t := relation.TrueTable()
		if !ok {
			t = relation.NewTable(nil)
		}
		return &yannakakis.Node{Table: t}, nil
	}

	b := &rootBuilder{ctx: ctx, db: db, e: e, tr: obs.FromContext(ctx), atomTables: map[int]*relation.Table{}}
	var root *yannakakis.Node
	var err error
	if workers <= 1 {
		root, err = b.buildSeq(e.HD.Root)
	} else {
		// The semaphore bounds concurrent table work only; goroutines waiting
		// on children hold no slot, so deep trees cannot deadlock (the same
		// discipline as yannakakis.ParallelReduce).
		b.sem = make(chan struct{}, workers)
		root, err = b.buildPar(e.HD.Root)
	}
	if err != nil {
		return nil, err
	}
	ok, err := yannakakis.GroundAtomsHold(db, e.Q)
	if err != nil {
		return nil, err
	}
	if !ok {
		root.Table = relation.NewTable(root.Table.Vars)
	}
	return root, nil
}

// rootBuilder carries the shared state of one Root materialisation. The
// atom-table memo is guarded by mu; two goroutines may race to bind the same
// atom and both compute it, but tables are immutable so the loser's work is
// merely discarded.
type rootBuilder struct {
	ctx context.Context
	db  *relation.Database
	e   *Evaluator
	tr  *obs.Trace // nil when the context carries no trace
	sem chan struct{}

	mu         sync.Mutex
	atomTables map[int]*relation.Table // edge id -> bound table
}

func (b *rootBuilder) bind(e2 int) (*relation.Table, error) {
	b.mu.Lock()
	t, ok := b.atomTables[e2]
	b.mu.Unlock()
	if ok {
		return t, nil
	}
	t, err := yannakakis.BindAtom(b.db, b.e.Q, b.e.edgeToAtom[e2])
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if prev, ok := b.atomTables[e2]; ok {
		t = prev
	} else {
		b.atomTables[e2] = t
	}
	b.mu.Unlock()
	return t, nil
}

// materialize joins the λ relations of n — in the evaluator's precomputed
// connected order, ascending estimated cardinality when statistics are
// attached — and projects to χ. Leapfrog nodes additionally return the sorted
// columnar encoding of the table (their output is born sorted), which the
// full reducer merge-semijoins over; chain nodes return a nil encoding.
// Under a traced context the build is recorded as one SpanNode carrying
// the join count and the actual vs estimated cardinality.
func (b *rootBuilder) materialize(n *decomp.Node) (*relation.Table, *relation.Columnar, error) {
	if lf := b.e.lfNodes[n]; lf != nil {
		return b.materializeLeapfrog(n, lf)
	}
	sp := b.tr.StartSpan(obs.SpanNode)
	sp.SetKernel(b.e.kernelOf[n])
	var joined *relation.Table
	for _, e2 := range b.e.lamOrder[n] {
		t, err := b.bind(e2)
		if err != nil {
			return nil, nil, err
		}
		if joined == nil {
			joined = t
		} else {
			joined = joined.Join(t)
			sp.AddSteps(1)
		}
	}
	if joined == nil {
		return nil, nil, fmt.Errorf("hdeval: decomposition node with empty λ")
	}
	out := joined.Project(b.e.chiElems[n])
	if id, ok := b.e.nodeID[n]; ok {
		sp.SetNode(id)
		sp.SetLabel(b.e.infos[id].Label)
	}
	sp.SetEst(n.EstRows)
	sp.SetRows(out.Rows())
	sp.End()
	return out, nil, nil
}

func (b *rootBuilder) buildSeq(n *decomp.Node) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	t, enc, err := b.materialize(n)
	if err != nil {
		return nil, err
	}
	out := &yannakakis.Node{Table: t, Enc: enc}
	for _, c := range n.Children {
		cn, err := b.buildSeq(c)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, cn)
	}
	return out, nil
}

// buildPar materialises n's own table under a semaphore slot while its
// children build concurrently; the first error wins and the tree above it
// is abandoned (all goroutines are still joined before returning).
func (b *rootBuilder) buildPar(n *decomp.Node) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	children := make([]*yannakakis.Node, len(n.Children))
	errs := make([]error, len(n.Children))
	var wg sync.WaitGroup
	for i, c := range n.Children {
		wg.Add(1)
		go func(i int, c *decomp.Node) {
			defer wg.Done()
			children[i], errs[i] = b.buildPar(c)
		}(i, c)
	}
	b.sem <- struct{}{}
	t, enc, err := b.materialize(n)
	<-b.sem
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, cerr := range errs {
		if cerr != nil {
			return nil, cerr
		}
	}
	return &yannakakis.Node{Table: t, Enc: enc, Children: children}, nil
}

// Boolean decides the query against db by the bottom-up semijoin pass.
// workers > 1 materialises the node tables on that many goroutines.
func (e *Evaluator) Boolean(ctx context.Context, db *relation.Database, workers int) (bool, error) {
	root, err := e.RootWorkers(ctx, db, workers)
	if err != nil {
		return false, err
	}
	return yannakakis.BooleanContext(ctx, root)
}

// Enumerate computes the full answer relation over the head variables, in
// time polynomial in input + output (Theorem 4.8). workers > 1 runs both
// the per-node λ-join materialisation and the full reducer's independent
// subtrees on that many goroutines.
func (e *Evaluator) Enumerate(ctx context.Context, db *relation.Database, workers int) (*relation.Table, error) {
	root, err := e.RootWorkers(ctx, db, workers)
	if err != nil {
		return nil, err
	}
	return yannakakis.EnumerateContext(ctx, root, e.head, workers)
}

// FromDecomposition performs the Lemma 4.6 construction in one shot; the
// Evaluator form is preferable when the decomposition is reused.
func FromDecomposition(db *relation.Database, q *cq.Query, hd *decomp.Decomposition) (*yannakakis.Node, error) {
	if hd == nil || hd.Root == nil {
		return nil, fmt.Errorf("hdeval: nil decomposition")
	}
	e, err := NewEvaluator(q, hd)
	if err != nil {
		return nil, err
	}
	return e.Root(context.Background(), db)
}

// Boolean decides a Boolean query through its hypertree decomposition.
func Boolean(db *relation.Database, q *cq.Query, hd *decomp.Decomposition) (bool, error) {
	root, err := FromDecomposition(db, q, hd)
	if err != nil {
		return false, err
	}
	return yannakakis.Boolean(root), nil
}

// Enumerate computes the full answer relation of a (non-Boolean) query
// through its hypertree decomposition, in time polynomial in input + output
// (Theorem 4.8).
func Enumerate(db *relation.Database, q *cq.Query, hd *decomp.Decomposition) (*relation.Table, error) {
	root, err := FromDecomposition(db, q, hd)
	if err != nil {
		return nil, err
	}
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
	}
	return yannakakis.Enumerate(root, head), nil
}

// NaiveJoin evaluates the query by joining all atom tables left to right
// with no decomposition — the baseline whose intermediate results can grow
// with r^|atoms| on cyclic queries.
func NaiveJoin(db *relation.Database, q *cq.Query) (*relation.Table, error) {
	return NaiveJoinContext(context.Background(), db, q)
}

// NaiveJoinContext is NaiveJoin with cancellation between joins.
func NaiveJoinContext(ctx context.Context, db *relation.Database, q *cq.Query) (*relation.Table, error) {
	ok, err := yannakakis.GroundAtomsHold(db, q)
	if err != nil {
		return nil, err
	}
	acc := relation.TrueTable()
	if !ok {
		acc = relation.NewTable(nil)
	}
	for i := range q.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if q.VarsOf(i).Empty() {
			continue
		}
		t, err := yannakakis.BindAtom(db, q, i)
		if err != nil {
			return nil, err
		}
		acc = acc.Join(t)
	}
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
	}
	return acc.Project(head), nil
}

// HeadVars returns the distinct head variables of q in head order,
// validating that each occurs in the body (safety).
func HeadVars(q *cq.Query) ([]int, error) {
	var head []int
	seen := map[int]bool{}
	if q.Head != nil {
		for _, t := range q.Head.Args {
			if !t.IsVar {
				continue
			}
			v, _ := q.VarIndex(t.Name)
			if !q.AllVars().Has(v) {
				return nil, fmt.Errorf("hdeval: unsafe head variable %s", t.Name)
			}
			if !seen[v] {
				seen[v] = true
				head = append(head, v)
			}
		}
	}
	// head variables must occur in the body
	bodyVars := map[int]bool{}
	for i := range q.Atoms {
		q.VarsOf(i).ForEach(func(v int) { bodyVars[v] = true })
	}
	for _, v := range head {
		if !bodyVars[v] {
			return nil, fmt.Errorf("hdeval: head variable %s does not occur in the body", q.VarName(v))
		}
	}
	return head, nil
}
