package relation

import (
	"math/rand"
	"testing"
)

func tableOf(vars []int, rows ...[]Value) *Table {
	t := NewTable(vars)
	for _, r := range rows {
		t.addRow(r)
	}
	return t
}

func TestConcatAndUnion(t *testing.T) {
	a := tableOf([]int{0, 1}, []Value{1, 2}, []Value{3, 4})
	b := tableOf([]int{0, 1}, []Value{3, 4}, []Value{5, 6})
	c := tableOf([]int{0, 1})

	cat := Concat(a, c, b)
	if cat.Rows() != 4 {
		t.Fatalf("Concat keeps duplicates: got %d rows, want 4", cat.Rows())
	}
	if got := cat.Row(0); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Concat must preserve table order, row 0 = %v", got)
	}

	u := Union(a, c, b)
	if u.Rows() != 3 {
		t.Fatalf("Union dedups: got %d rows, want 3", u.Rows())
	}
	// first occurrence wins: (3,4) comes from a, so order is a's rows then (5,6)
	if got := u.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Union must keep first occurrences in order, row 1 = %v", got)
	}

	if Union().Rows() != 0 || len(Union().Vars) != 0 {
		t.Fatalf("empty Union should be the empty nullary table")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Concat over mismatched vars must panic")
		}
	}()
	Concat(a, tableOf([]int{1, 0}, []Value{1, 2}))
}

func TestJoinOnMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		tv := []int{0, 1}
		uv := [][]int{{1, 2}, {0, 1}, {2, 3}, {1}}[trial%4]
		a := NewTable(tv)
		b := NewTable(uv)
		for i := 0; i < rng.Intn(30); i++ {
			a.addRow([]Value{Value(rng.Intn(5)), Value(rng.Intn(5))})
		}
		a.dedup()
		for i := 0; i < rng.Intn(30); i++ {
			row := make([]Value, len(uv))
			for j := range row {
				row[j] = Value(rng.Intn(5))
			}
			b.addRow(row)
		}
		b.dedup()

		want := a.Join(b)
		idx := NewJoinIndex(tv, b)
		got := a.JoinOn(idx)
		if !got.Equal(want) {
			t.Fatalf("trial %d: JoinOn disagrees with Join (vars %v ⋈ %v)", trial, tv, uv)
		}
		// the index is reusable: probing with a fragment joins just that part
		if a.Rows() > 1 {
			frag := NewTable(tv)
			frag.addRow(a.Row(0))
			if fj := frag.JoinOn(idx); fj.Rows() > want.Rows() {
				t.Fatalf("trial %d: fragment join larger than full join", trial)
			}
		}
	}
}

func TestJoinIndexChainOutVars(t *testing.T) {
	u := tableOf([]int{1, 2}, []Value{7, 8})
	idx := NewJoinIndex([]int{0, 1}, u)
	out := idx.OutVars()
	if len(out) != 3 || out[0] != 0 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("OutVars = %v, want [0 1 2]", out)
	}
	probe := tableOf([]int{0, 1}, []Value{6, 7})
	joined := probe.JoinOn(idx)
	idx2 := NewJoinIndex(joined.Vars, tableOf([]int{2, 3}, []Value{8, 9}))
	final := joined.JoinOn(idx2)
	if final.Rows() != 1 || len(final.Vars) != 4 {
		t.Fatalf("chained JoinOn broken: %d rows over %v", final.Rows(), final.Vars)
	}
}

// Deduplicating a table that is all duplicates must not allocate per row:
// the integer-keyed index costs a fixed number of arrays however many rows
// it holds.
func TestUnionDedupAllocs(t *testing.T) {
	const rows = 1000
	a := NewTable([]int{0, 1})
	for i := 0; i < rows; i++ {
		a.addRow([]Value{Value(i), Value(i + 1)})
	}
	allocs := testing.AllocsPerRun(10, func() {
		u := Union(a, a)
		if u.Rows() != rows {
			t.Fatalf("Union lost rows: %d", u.Rows())
		}
	})
	// The output table, its data and the index arrays.
	if allocs > 32 {
		t.Fatalf("Union dedup allocates %v times for %d distinct rows — want a constant number", allocs, rows)
	}
}

func BenchmarkUnionDedup(b *testing.B) {
	const rows = 5000
	a := NewTable([]int{0, 1})
	for i := 0; i < rows; i++ {
		a.addRow([]Value{Value(i), Value(i + 1)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Union(a, a)
	}
}

func TestCloneSchemaSharesDictionary(t *testing.T) {
	db := NewDatabase()
	if err := db.AddFact("r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	cl := db.CloneSchema()
	if cl.Relation("r") == nil || cl.Relation("r").Arity != 2 {
		t.Fatalf("schema not cloned")
	}
	if cl.Relation("r").Rows() != 0 {
		t.Fatalf("clone must start empty")
	}
	va, _ := db.Lookup("a")
	vb, ok := cl.Lookup("a")
	if !ok || va != vb {
		t.Fatalf("dictionary not shared: %d vs %d", va, vb)
	}
}

func TestRelationHas(t *testing.T) {
	db := NewDatabase()
	db.AddFact("r", "a", "b")
	r := db.Relation("r")
	a, _ := db.Lookup("a")
	b, _ := db.Lookup("b")
	if !r.Has(a, b) {
		t.Fatalf("Has misses a present tuple")
	}
	if r.Has(b, a) {
		t.Fatalf("Has found an absent tuple")
	}
	if r.Has(a) {
		t.Fatalf("Has must reject arity mismatch")
	}
}
