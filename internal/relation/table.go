package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a set of rows over query variables: Vars lists the distinct
// variable ids (column order), rows are stored flat. A table with no
// variables is Boolean: it holds either zero rows (false) or one empty row
// (true).
//
// The set property is an invariant: no two rows of a table are equal. Every
// operation keeps it given set inputs (Concat only for disjoint inputs), and
// Bind and a Project onto a permutation of all columns rely on it to skip
// the dedup pass.
type Table struct {
	Vars []int
	data []Value
	rows int
}

// NewTable returns an empty table over the given variables.
func NewTable(vars []int) *Table {
	return &Table{Vars: append([]int(nil), vars...)}
}

// TrueTable returns the Boolean table holding the empty row.
func TrueTable() *Table {
	t := NewTable(nil)
	t.addRow(nil)
	return t
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Empty reports whether the table has no rows.
func (t *Table) Empty() bool { return t.rows == 0 }

// Row returns the i-th row (not to be mutated).
func (t *Table) Row(i int) []Value {
	w := len(t.Vars)
	return t.data[i*w : (i+1)*w]
}

func (t *Table) addRow(row []Value) {
	t.data = append(t.data, row...)
	t.rows++
}

// col returns the column index of variable v, or -1.
func (t *Table) col(v int) int {
	for i, x := range t.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// Bind materialises an atom over a base relation as a table: args maps each
// relation column to either a variable id (IsVar) or a constant value.
// Repeated variables become equality selections; constants become constant
// selections; the result's columns are the distinct variables in order of
// first occurrence.
type Arg struct {
	IsVar bool
	Var   int
	Const Value
}

// BindVar returns an Arg selecting variable v.
func BindVar(v int) Arg { return Arg{IsVar: true, Var: v} }

// BindConst returns an Arg requiring the constant c.
func BindConst(c Value) Arg { return Arg{Const: c} }

// Bind evaluates the atom r(args...) into a table. Binding is injective on
// the tuples that pass its selections — a dropped column is either a
// constant or a repeat of a kept one — so the rows of a set relation bind to
// distinct table rows and no dedup pass is needed.
func Bind(r *Relation, args []Arg) (*Table, error) {
	if len(args) != r.Arity {
		return nil, fmt.Errorf("relation: atom over %s has %d args, relation has arity %d", r.Name, len(args), r.Arity)
	}
	// src[j] is the first column carrying arg j's variable, or -1 for a
	// constant; keep lists the first columns, one per output variable.
	var vars, keep []int
	src := make([]int, len(args))
	for i, a := range args {
		src[i] = -1
		if !a.IsVar {
			continue
		}
		src[i] = i
		for j := 0; j < i; j++ {
			if args[j].IsVar && args[j].Var == a.Var {
				src[i] = j
				break
			}
		}
		if src[i] == i {
			vars = append(vars, a.Var)
			keep = append(keep, i)
		}
	}
	out := NewTable(vars)
rows:
	for i := 0; i < r.Rows(); i++ {
		tup := r.Row(i)
		for j, a := range args {
			if c := src[j]; c < 0 {
				if tup[j] != a.Const {
					continue rows
				}
			} else if tup[c] != tup[j] {
				continue rows
			}
		}
		for _, c := range keep {
			out.data = append(out.data, tup[c])
		}
		out.rows++
	}
	return out, nil
}

// dedup removes duplicate rows in place, keeping first occurrences in order.
func (t *Table) dedup() {
	if t.rows <= 1 {
		return
	}
	w := len(t.Vars)
	seen := newKeyIndex(allCols(w), t.rows)
	kept := 0
	for i := 0; i < t.rows; i++ {
		row := t.data[i*w : (i+1)*w]
		if seen.insert(t.data, w, row) {
			copy(t.data[kept*w:], row)
			kept++
		}
	}
	t.data = t.data[:kept*w]
	t.rows = kept
}

// Project returns the projection of t onto vars (which must be a subset of
// t.Vars), with duplicate rows removed. A projection onto a permutation of
// all of t's columns cannot create duplicates in a set, so it is a plain
// column copy.
func (t *Table) Project(vars []int) *Table {
	cols := make([]int, len(vars))
	for i, v := range vars {
		c := t.col(v)
		if c < 0 {
			panic(fmt.Sprintf("relation: projection variable %d not in table %v", v, t.Vars))
		}
		cols[i] = c
	}
	out := NewTable(vars)
	w, ow := len(t.Vars), len(vars)
	if ow == w && distinct(cols) {
		out.data = make([]Value, 0, len(t.data))
		for i := 0; i < t.rows; i++ {
			src := t.data[i*w : (i+1)*w]
			for _, c := range cols {
				out.data = append(out.data, src[c])
			}
		}
		out.rows = t.rows
		return out
	}
	seen := newKeyIndex(allCols(ow), t.rows)
	row := make([]Value, ow)
	for i := 0; i < t.rows; i++ {
		src := t.data[i*w : (i+1)*w]
		for j, c := range cols {
			row[j] = src[c]
		}
		if seen.insert(out.data, ow, row) {
			out.addRow(row)
		}
	}
	return out
}

// distinct reports whether no value repeats in xs.
func distinct(xs []int) bool {
	for i, x := range xs {
		for _, y := range xs[:i] {
			if x == y {
				return false
			}
		}
	}
	return true
}

// sharedVars returns the variables common to t and u, with their column
// positions in each.
func sharedVars(t, u *Table) (vars []int, tc, uc []int) {
	for i, v := range t.Vars {
		if j := u.col(v); j >= 0 {
			vars = append(vars, v)
			tc = append(tc, i)
			uc = append(uc, j)
		}
	}
	return
}

// Semijoin returns the rows of t that join with at least one row of u
// (t ⋉ u). The column set is t's.
func (t *Table) Semijoin(u *Table) *Table {
	_, tc, uc := sharedVars(t, u)
	out := NewTable(t.Vars)
	ix := indexRows(u, uc)
	w, uw := len(t.Vars), len(u.Vars)
	for i := 0; i < t.rows; i++ {
		row := t.data[i*w : (i+1)*w]
		if ix.find(u.data, uw, row, tc) >= 0 {
			out.addRow(row)
		}
	}
	return out
}

// Join returns the natural join t ⋈ u. The result's columns are t's
// variables followed by u's variables that are not in t.
func (t *Table) Join(u *Table) *Table {
	return t.JoinOn(NewJoinIndex(t.Vars, u))
}

// Equal reports whether t and u hold the same set of rows over the same
// variable set (possibly in different column orders).
func (t *Table) Equal(u *Table) bool {
	if len(t.Vars) != len(u.Vars) || t.rows != u.rows {
		return false
	}
	perm := make([]int, len(t.Vars))
	for i, v := range t.Vars {
		j := u.col(v)
		if j < 0 {
			return false
		}
		perm[i] = j
	}
	w := len(t.Vars)
	ix := indexRows(t, allCols(w))
	for i := 0; i < u.rows; i++ {
		if ix.find(t.data, w, u.data[i*w:(i+1)*w], perm) < 0 {
			return false
		}
	}
	return true
}

// StringWith renders the table with variable names from namer and constant
// names from db, sorted, for tests and tools.
func (t *Table) StringWith(db *Database, varName func(int) string) string {
	header := make([]string, len(t.Vars))
	for i, v := range t.Vars {
		header[i] = varName(v)
	}
	var rows []string
	for i := 0; i < t.rows; i++ {
		parts := make([]string, len(t.Vars))
		for j, v := range t.Row(i) {
			parts[j] = db.ValueName(v)
		}
		rows = append(rows, strings.Join(parts, ","))
	}
	sort.Strings(rows)
	return "(" + strings.Join(header, ",") + ")\n" + strings.Join(rows, "\n")
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	out := NewTable(t.Vars)
	out.data = append([]Value(nil), t.data...)
	out.rows = t.rows
	return out
}
