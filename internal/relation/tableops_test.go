package relation

import (
	"math/rand"
	"testing"
)

// This file checks the hashed table operations against nested-loop
// references that hash nothing: Join, JoinOn, Semijoin, Project, Union and
// Equal on random set tables whose shared key spans 0–4 columns (the packed
// keys of at most two columns and the hashed wider ones), with the unknown
// constant -1 among the values and Boolean (0-column) tables included.

// refDistinct returns t's rows with repeats removed, first occurrences in
// order, by pairwise comparison.
func refDistinct(t *Table) *Table {
	out := NewTable(t.Vars)
	for i := 0; i < t.Rows(); i++ {
		if !refHasRow(out, t.Row(i)) {
			out.addRow(t.Row(i))
		}
	}
	return out
}

func refHasRow(t *Table, row []Value) bool {
	for i := 0; i < t.Rows(); i++ {
		if sameRow(t.Row(i), row) {
			return true
		}
	}
	return false
}

func sameRow(a, b []Value) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refAgree reports whether rows a of t and b of u agree on every shared
// variable.
func refAgree(t *Table, a []Value, u *Table, b []Value) bool {
	for i, v := range t.Vars {
		if j := u.col(v); j >= 0 && a[i] != b[j] {
			return false
		}
	}
	return true
}

// refJoin is the nested-loop natural join, in t's row order and then u's.
func refJoin(t, u *Table) *Table {
	vars := append([]int(nil), t.Vars...)
	var extra []int
	for j, v := range u.Vars {
		if t.col(v) < 0 {
			vars = append(vars, v)
			extra = append(extra, j)
		}
	}
	out := NewTable(vars)
	for i := 0; i < t.Rows(); i++ {
		for j := 0; j < u.Rows(); j++ {
			if !refAgree(t, t.Row(i), u, u.Row(j)) {
				continue
			}
			row := append([]Value(nil), t.Row(i)...)
			for _, c := range extra {
				row = append(row, u.Row(j)[c])
			}
			out.addRow(row)
		}
	}
	return out
}

func refSemijoin(t, u *Table) *Table {
	out := NewTable(t.Vars)
	for i := 0; i < t.Rows(); i++ {
		for j := 0; j < u.Rows(); j++ {
			if refAgree(t, t.Row(i), u, u.Row(j)) {
				out.addRow(t.Row(i))
				break
			}
		}
	}
	return out
}

func refProject(t *Table, vars []int) *Table {
	out := NewTable(vars)
	for i := 0; i < t.Rows(); i++ {
		row := make([]Value, len(vars))
		for j, v := range vars {
			row[j] = t.Row(i)[t.col(v)]
		}
		out.addRow(row)
	}
	return refDistinct(out)
}

// refEqual compares two set tables over the same variables in any column
// order.
func refEqual(t, u *Table) bool {
	if len(t.Vars) != len(u.Vars) || t.Rows() != u.Rows() {
		return false
	}
	for _, v := range t.Vars {
		if u.col(v) < 0 {
			return false
		}
	}
	for i := 0; i < t.Rows(); i++ {
		found := false
		for j := 0; j < u.Rows() && !found; j++ {
			found = refAgree(t, t.Row(i), u, u.Row(j))
		}
		if !found {
			return false
		}
	}
	return true
}

// sameTable reports whether got holds exactly want's variable sequence and
// row sequence.
func sameTable(got, want *Table) bool {
	if len(got.Vars) != len(want.Vars) || got.Rows() != want.Rows() {
		return false
	}
	for i, v := range want.Vars {
		if got.Vars[i] != v {
			return false
		}
	}
	for i := 0; i < want.Rows(); i++ {
		if !sameRow(got.Row(i), want.Row(i)) {
			return false
		}
	}
	return true
}

// opsPair builds two set tables sharing exactly `shared` variables (ids
// 0..shared-1, in a different column order in each), with tp and up private
// variables, values drawn from [-1, dom-1).
func opsPair(rng *rand.Rand, shared, tp, up, tRows, uRows, dom int) (*Table, *Table) {
	var tv, uv []int
	for v := 0; v < shared; v++ {
		tv = append(tv, v)
		uv = append(uv, v)
	}
	for v := 0; v < tp; v++ {
		tv = append(tv, 10+v)
	}
	for v := 0; v < up; v++ {
		uv = append(uv, 20+v)
	}
	rng.Shuffle(len(tv), func(i, j int) { tv[i], tv[j] = tv[j], tv[i] })
	rng.Shuffle(len(uv), func(i, j int) { uv[i], uv[j] = uv[j], uv[i] })
	mk := func(vars []int, n int) *Table {
		t := NewTable(vars)
		row := make([]Value, len(vars))
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = Value(rng.Intn(dom) - 1)
			}
			t.addRow(row)
		}
		return refDistinct(t)
	}
	return mk(tv, tRows), mk(uv, uRows)
}

// checkTableOps runs every hashed operation on the set tables a and b and
// compares it with its reference.
func checkTableOps(t *testing.T, a, b *Table) {
	t.Helper()
	if got, want := a.Join(b), refJoin(a, b); !sameTable(got, want) {
		t.Fatalf("Join %v ⋈ %v: got %v, want %v", a.Vars, b.Vars, got.data, want.data)
	}
	if got, want := a.JoinOn(NewJoinIndex(a.Vars, b)), refJoin(a, b); !sameTable(got, want) {
		t.Fatalf("JoinOn %v ⋈ %v: got %v, want %v", a.Vars, b.Vars, got.data, want.data)
	}
	if got, want := a.Semijoin(b), refSemijoin(a, b); !sameTable(got, want) {
		t.Fatalf("Semijoin %v ⋉ %v: got %v, want %v", a.Vars, b.Vars, got.data, want.data)
	}
	// Projections onto every prefix of a's columns and onto a reversal of
	// all of them (the permutation path).
	for k := 0; k <= len(a.Vars); k++ {
		vars := a.Vars[:k]
		if got, want := a.Project(vars), refProject(a, vars); !sameTable(got, want) {
			t.Fatalf("Project %v onto %v: got %v, want %v", a.Vars, vars, got.data, want.data)
		}
	}
	rev := make([]int, len(a.Vars))
	for i, v := range a.Vars {
		rev[len(rev)-1-i] = v
	}
	if got, want := a.Project(rev), refProject(a, rev); !sameTable(got, want) {
		t.Fatalf("Project %v onto %v: got %v, want %v", a.Vars, rev, got.data, want.data)
	}
	// Union with a column-aligned copy of b's rows over a's variables.
	if sameVarSet(a, b) {
		bb := b.Project(a.Vars)
		if got, want := Union(a, bb, a), refDistinct(Concat(a, bb, a)); !sameTable(got, want) {
			t.Fatalf("Union: got %v, want %v", got.data, want.data)
		}
	}
	if got, want := Union(a, a), refDistinct(a); !sameTable(got, want) {
		t.Fatalf("Union(a, a): got %v, want %v", got.data, want.data)
	}
	if got, want := a.Equal(b), refEqual(a, b); got != want {
		t.Fatalf("Equal(%v, %v) = %v, want %v", a.Vars, b.Vars, got, want)
	}
	perm := a.Project(rev)
	if !a.Equal(perm) || !perm.Equal(a) {
		t.Fatalf("Equal misses a column permutation of %v", a.Vars)
	}
	if a.Rows() > 0 {
		// Drop the last row and append a row not in a: same size, different set.
		other := NewTable(a.Vars)
		other.data = append(other.data, a.data[:len(a.data)-len(a.Vars)]...)
		other.rows = a.Rows() - 1
		fresh := make([]Value, len(a.Vars))
		for i := range fresh {
			fresh[i] = 1000
		}
		other.addRow(fresh)
		if got, want := a.Equal(other), refEqual(a, other); got != want {
			t.Fatalf("Equal with one row replaced = %v, want %v", got, want)
		}
	}
}

func sameVarSet(a, b *Table) bool {
	if len(a.Vars) != len(b.Vars) {
		return false
	}
	for _, v := range a.Vars {
		if b.col(v) < 0 {
			return false
		}
	}
	return true
}

func TestTableOpsAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for shared := 0; shared <= 4; shared++ {
		for trial := 0; trial < 60; trial++ {
			tp, up := rng.Intn(3), rng.Intn(3)
			if trial%6 == 0 {
				up = 0 // u's variables a subset of t's
			}
			if trial%10 == 0 {
				tp, up = 0, 0 // same variable set: Equal and Union compare rows
			}
			a, b := opsPair(rng, shared, tp, up, rng.Intn(40), rng.Intn(40), 2+rng.Intn(3))
			checkTableOps(t, a, b)
		}
	}
}

func TestBooleanTableOps(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tt, ff := TrueTable(), NewTable(nil)
	_, r := opsPair(rng, 0, 0, 2, 0, 10, 3)
	for _, a := range []*Table{tt, ff, r} {
		for _, b := range []*Table{tt, ff, r} {
			checkTableOps(t, a, b)
		}
	}
	if u := Union(tt, tt, ff); u.Rows() != 1 {
		t.Fatalf("true ∪ true ∪ false has %d rows, want 1", u.Rows())
	}
	if p := r.Project(nil); p.Rows() != 1 || len(p.Vars) != 0 {
		t.Fatalf("projecting a non-empty table onto no columns must give true, got %d rows", p.Rows())
	}
}

// TestWideKeysInOneChain clears the wide-key hash so that every key of three
// or more columns lands in one slot: the row-equality checks alone must then
// keep joins, semijoins, dedups, Equal and relation tuple sets right.
func TestWideKeysInOneChain(t *testing.T) {
	defer func(m uint64) { wideHashMask = m }(wideHashMask)
	wideHashMask = 0

	rng := rand.New(rand.NewSource(14))
	a, b := opsPair(rng, 3, 1, 1, 60, 60, 3)
	if ix := indexRows(b, allCols(len(b.Vars))); ix.used != 1 {
		t.Fatalf("wide keys occupy %d slots with the hash cleared, want 1", ix.used)
	}
	for shared := 3; shared <= 4; shared++ {
		for trial := 0; trial < 20; trial++ {
			a, b = opsPair(rng, shared, rng.Intn(2), rng.Intn(2), rng.Intn(40), rng.Intn(40), 3)
			checkTableOps(t, a, b)
		}
	}

	r := &Relation{Name: "r", Arity: 3}
	want := NewTable([]int{0, 1, 2})
	for i := 0; i < 200; i++ {
		tup := []Value{Value(rng.Intn(4) - 1), Value(rng.Intn(4)), Value(rng.Intn(4))}
		if got, has := r.Has(tup...), refHasRow(want, tup); got != has {
			t.Fatalf("Has(%v) = %v, want %v", tup, got, has)
		}
		r.Add(tup...)
		if !refHasRow(want, tup) {
			want.addRow(tup)
		}
	}
	if r.Rows() != want.Rows() {
		t.Fatalf("relation holds %d tuples, want %d", r.Rows(), want.Rows())
	}
}

func TestRelationTupleSet(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for arity := 1; arity <= 4; arity++ {
		r := &Relation{Name: "r", Arity: arity}
		want := NewTable(allCols(arity))
		for i := 0; i < 300; i++ {
			tup := make([]Value, arity)
			for j := range tup {
				tup[j] = Value(rng.Intn(5) - 1)
			}
			r.Add(tup...)
			if !refHasRow(want, tup) {
				want.addRow(tup)
			}
		}
		if r.Rows() != want.Rows() {
			t.Fatalf("arity %d: %d tuples, want %d", arity, r.Rows(), want.Rows())
		}
		for i := 0; i < want.Rows(); i++ {
			if !sameRow(r.Row(i), want.Row(i)) || !r.Has(want.Row(i)...) {
				t.Fatalf("arity %d: tuple %d is %v, want %v", arity, i, r.Row(i), want.Row(i))
			}
		}
		if r.Has(make([]Value, arity+1)...) {
			t.Fatalf("arity %d: Has accepted a wrong arity", arity)
		}
	}
	unit := &Relation{Name: "flag"}
	if unit.Rows() != 0 || unit.Has() {
		t.Fatal("an empty arity-0 relation holds nothing")
	}
	unit.Add()
	unit.Add()
	if unit.Rows() != 1 || !unit.Has() {
		t.Fatalf("arity-0 relation after Add: %d rows", unit.Rows())
	}
}

// refBind is the definition of Bind: select the tuples passing the
// constant and repeated-variable tests, keep each variable's first column,
// then dedup.
func refBind(r *Relation, args []Arg) *Table {
	var vars, keep []int
	for i, a := range args {
		if !a.IsVar {
			continue
		}
		seen := false
		for _, v := range vars {
			seen = seen || v == a.Var
		}
		if !seen {
			vars = append(vars, a.Var)
			keep = append(keep, i)
		}
	}
	out := NewTable(vars)
	for i := 0; i < r.Rows(); i++ {
		tup := r.Row(i)
		ok := true
		for j, a := range args {
			if !a.IsVar {
				ok = ok && tup[j] == a.Const
				continue
			}
			for x, v := range vars {
				if v == a.Var {
					ok = ok && tup[keep[x]] == tup[j]
				}
			}
		}
		if !ok {
			continue
		}
		row := make([]Value, len(keep))
		for x, c := range keep {
			row[x] = tup[c]
		}
		out.addRow(row)
	}
	return refDistinct(out)
}

// TestBindRowsAreDistinct pins the set invariant Bind's missing dedup pass
// relies on: over a set relation, binding with repeated variables and
// constants (the unknown constant -1 included) yields distinct rows, equal
// in order to bind-then-dedup.
func TestBindRowsAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 400; trial++ {
		arity := rng.Intn(5)
		r := &Relation{Name: "r", Arity: arity}
		for i := 0; i < rng.Intn(60); i++ {
			tup := make([]Value, arity)
			for j := range tup {
				tup[j] = Value(rng.Intn(3))
			}
			r.Add(tup...)
		}
		args := make([]Arg, arity)
		for j := range args {
			if rng.Intn(3) == 0 {
				args[j] = BindConst(Value(rng.Intn(4) - 1))
			} else {
				args[j] = BindVar(rng.Intn(3))
			}
		}
		got, err := Bind(r, args)
		if err != nil {
			t.Fatal(err)
		}
		if want := refBind(r, args); !sameTable(got, want) {
			t.Fatalf("Bind %v: got %v over %v, want %v over %v", args, got.data, got.Vars, want.data, want.Vars)
		}
		if !sameTable(got, refDistinct(got)) {
			t.Fatalf("Bind %v returned repeated rows %v", args, got.data)
		}
	}
}

// TestPermutationProjectIsDedupProjection checks the no-dedup projection
// path: onto any permutation of all columns of a set table it equals the
// deduplicating projection.
func TestPermutationProjectIsDedupProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		w := rng.Intn(5)
		a, _ := opsPair(rng, 0, w, 0, rng.Intn(50), 0, 3)
		perm := append([]int(nil), a.Vars...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if got, want := a.Project(perm), refProject(a, perm); !sameTable(got, want) {
			t.Fatalf("Project %v onto %v: got %v, want %v", a.Vars, perm, got.data, want.data)
		}
	}
}

// TestHashOpsAllocations guards the allocation profile of the hashed
// operations on 10k-row inputs: a fixed number of index arrays plus the
// geometric growth of the output, never one allocation per row.
func TestHashOpsAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := randomTable(rng, []int{0, 1}, 10000, 10000)
	b := randomTable(rng, []int{1, 2}, 10000, 10000)
	wa := randomTable(rng, []int{0, 1, 2, 3}, 10000, 12)
	wb := randomTable(rng, []int{3, 2, 1, 4}, 10000, 12)
	ops := []struct {
		name string
		run  func() *Table
	}{
		{"Join", func() *Table { return a.Join(b) }},
		{"Semijoin", func() *Table { return a.Semijoin(b) }},
		{"Project", func() *Table { return a.Project([]int{1}) }},
		{"ProjectPermutation", func() *Table { return a.Project([]int{1, 0}) }},
		{"Union", func() *Table { return Union(a, a) }},
		{"WideJoin", func() *Table { return wa.Join(wb) }},
		{"WideSemijoin", func() *Table { return wa.Semijoin(wb) }},
		{"WideProject", func() *Table { return wa.Project([]int{0, 1, 2}) }},
	}
	for _, op := range ops {
		if op.run().Rows() == 0 {
			t.Fatalf("%s: empty result, the guard would measure nothing", op.name)
		}
		n := testing.AllocsPerRun(5, func() { op.run() })
		t.Logf("%s: %v allocations", op.name, n)
		if n > 100 {
			t.Errorf("%s allocates %v times on 10k rows, want at most 100", op.name, n)
		}
	}
}

// FuzzTableOps decodes two set tables from the input — the shared key
// width 0–4, the private column counts and the cell values — and checks
// every hashed operation against its nested-loop reference.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{2, 1, 1, 6, 6, 0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0})
	f.Add([]byte{4, 0, 2, 9, 9, 255, 0, 1, 2, 255, 3, 2, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 3})
	f.Add([]byte{3, 2, 0, 12, 4, 1, 1, 1, 2, 2, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		shared, tp, up := int(in[0]%5), int(in[1]%3), int(in[2]%3)
		tRows, uRows := int(in[3]%24), int(in[4]%24)
		cells := in[5:]
		next := func() Value {
			if len(cells) == 0 {
				return 0
			}
			c := cells[0]
			cells = cells[1:]
			return Value(c%5) - 1
		}
		mk := func(vars []int, n int) *Table {
			t := NewTable(vars)
			row := make([]Value, len(vars))
			for i := 0; i < n; i++ {
				for j := range row {
					row[j] = next()
				}
				t.addRow(row)
			}
			return refDistinct(t)
		}
		var tv, uv []int
		for v := 0; v < shared; v++ {
			tv = append(tv, v)
			uv = append([]int{v}, uv...)
		}
		for v := 0; v < tp; v++ {
			tv = append(tv, 10+v)
		}
		for v := 0; v < up; v++ {
			uv = append(uv, 20+v)
		}
		checkTableOps(t, mk(tv, tRows), mk(uv, uRows))
	})
}
