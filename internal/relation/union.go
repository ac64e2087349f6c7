package relation

import "fmt"

// This file holds the tuple-set merge and reusable-join primitives behind
// partition-parallel evaluation (internal/shard): per-shard node tables are
// produced over identical variable sequences and merged back with Concat
// (disjoint fragments) or Union (dedup), and the broadcast side of a
// fragment-and-replicate λ-join is indexed once with NewJoinIndex and probed
// by every fragment.

// sameVars reports whether the tables all carry exactly the variable
// sequence of the first one (same ids, same column order).
func sameVars(tables []*Table) bool {
	for _, t := range tables[1:] {
		if len(t.Vars) != len(tables[0].Vars) {
			return false
		}
		for i, v := range tables[0].Vars {
			if t.Vars[i] != v {
				return false
			}
		}
	}
	return true
}

// Concat returns the concatenation of tables, which must all share the same
// variable sequence, without removing duplicate rows. It is the fast merge
// for per-shard results that are disjoint by construction (fragments of a
// set-semantics relation are pairwise disjoint, and a projection that keeps
// every fragment column preserves that); when disjointness is not
// guaranteed, use Union. Rows keep shard order: all rows of tables[0], then
// all rows of tables[1], and so on — the merge is deterministic.
func Concat(tables ...*Table) *Table {
	if len(tables) == 0 {
		return NewTable(nil)
	}
	if !sameVars(tables) {
		panic(fmt.Sprintf("relation: Concat over mismatched variable sequences (%v vs ...)", tables[0].Vars))
	}
	out := NewTable(tables[0].Vars)
	for _, t := range tables {
		out.data = append(out.data, t.data...)
		out.rows += t.rows
	}
	return out
}

// Union returns the set union of tables, which must all share the same
// variable sequence. Duplicate rows are removed keeping the first
// occurrence, so the result is deterministic: rows appear in table order,
// then row order.
func Union(tables ...*Table) *Table {
	out := Concat(tables...)
	out.dedup()
	return out
}

// A JoinIndex is the precomputed build side of a natural join: u's rows
// hashed on the columns u shares with a fixed probe-side variable sequence.
// Building it costs one pass over u; it can then be probed by any number of
// tables over exactly that variable sequence (JoinOn) without re-indexing u
// — Table.Join is one build and one probe, and the sharded evaluator joins
// every pivot fragment of a λ-join against the same broadcast relation
// through one index. A JoinIndex is immutable after construction and safe
// for concurrent probing.
type JoinIndex struct {
	u         *Table
	probeVars []int
	outVars   []int
	tc, uc    []int // shared-variable columns in the probe side / in u
	extraCols []int // u columns appended after the probe columns
	index     *keyIndex
}

// NewJoinIndex indexes u for natural joins against tables over exactly the
// variable sequence probeVars.
func NewJoinIndex(probeVars []int, u *Table) *JoinIndex {
	idx := &JoinIndex{u: u, probeVars: append([]int(nil), probeVars...)}
	probe := NewTable(probeVars)
	_, idx.tc, idx.uc = sharedVars(probe, u)
	idx.outVars = append(idx.outVars, probeVars...)
	for j, v := range u.Vars {
		if probe.col(v) < 0 {
			idx.outVars = append(idx.outVars, v)
			idx.extraCols = append(idx.extraCols, j)
		}
	}
	idx.index = indexRows(u, idx.uc)
	return idx
}

// OutVars returns the variable sequence of tables produced by JoinOn: the
// probe variables followed by u's variables not among them. It is the
// probeVars argument for chaining a further NewJoinIndex.
func (idx *JoinIndex) OutVars() []int { return append([]int(nil), idx.outVars...) }

// JoinOn returns the natural join t ⋈ u through the prebuilt index, where t
// must carry exactly the variable sequence the index was built for. The
// result equals t.Join(u) but the cost is one probe per row of t plus the
// output, with no per-call pass over u. Rows come out in t's row order, and
// each t row's matches in u's row order.
func (t *Table) JoinOn(idx *JoinIndex) *Table {
	if !sameVars([]*Table{NewTable(idx.probeVars), t}) {
		panic(fmt.Sprintf("relation: JoinOn probe table has vars %v, index was built for %v", t.Vars, idx.probeVars))
	}
	out := NewTable(idx.outVars)
	ix, u := idx.index, idx.u
	w, uw := len(t.Vars), len(u.Vars)
	for i := 0; i < t.rows; i++ {
		trow := t.data[i*w : (i+1)*w]
		for j := ix.first(ix.key(trow, idx.tc)); j >= 0; j = ix.after(j) {
			urow := u.data[j*uw : (j+1)*uw]
			if ix.wide && !equalOn(trow, idx.tc, urow, idx.uc) {
				continue
			}
			out.data = append(out.data, trow...)
			for _, c := range idx.extraCols {
				out.data = append(out.data, urow[c])
			}
			out.rows++
		}
	}
	return out
}
