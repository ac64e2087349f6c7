package relation

// This file is the hash index behind every hashed operation on tables and
// relations: join build and probe, semijoin, the deduplicating projection
// and union, Equal, and the tuple set of a Relation. Keys are integers, so
// neither a build nor a probe allocates per row:
//
//   - a key of at most two columns packs exactly into a uint64 (each Value
//     is an int32), so equal slot keys mean equal column values;
//   - a wider key hashes into a uint64, and every candidate row the slot
//     yields is confirmed with a row-equality check on the key columns.
//
// The slots are open-addressed (linear probing over a power-of-two table)
// and hold a key and the first row carrying it. The rows sharing a slot are
// chained through one flat []int32 indexed by row, so an index built over a
// known number of rows costs three allocations however many keys it holds.

// fibMul is 2^64 / φ: multiplicative (Fibonacci) hashing spreads packed
// keys over the slot table, and it is the mixing constant of wide-key
// hashing.
const fibMul = 0x9E3779B97F4A7C15

// wideHashMask is ANDed into every wide-key hash. It is all ones; a
// white-box test clears it to force every wide key into one chain, where
// only the row-equality check tells keys apart.
var wideHashMask = ^uint64(0)

// keyIndex maps the values of some key columns of row-major rows to the rows
// carrying them. It holds row numbers only: every call that reads row
// contents is handed the rows' backing array, so the rows may be appended to
// (and reallocated) between calls. Row numbers are int32, which bounds an
// index to fewer than 2^31 rows.
type keyIndex struct {
	cols  []int    // key columns of the indexed rows
	wide  bool     // more than two key columns: slot keys are hashes
	keys  []uint64 // per slot: the packed key, or the hash of a wide key
	heads []int32  // per slot: first row of its chain plus one; 0 marks a free slot
	next  []int32  // per row: the next row of its chain plus one; 0 ends the chain
	shift uint     // 64 - log2(len(keys))
	used  int      // occupied slots
}

// newKeyIndex returns an empty index over the key columns cols, sized to
// hold rows keys without growing.
func newKeyIndex(cols []int, rows int) *keyIndex {
	ix := &keyIndex{cols: cols, wide: len(cols) > 2}
	ix.resize(rows)
	ix.next = make([]int32, 0, rows)
	return ix
}

// allCols returns the key columns 0..w-1: a key over the whole row.
func allCols(w int) []int {
	cols := make([]int, w)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// indexRows indexes every row of t on the key columns cols. Each chain lists
// its rows in ascending order, so probes visit matches in table order.
func indexRows(t *Table, cols []int) *keyIndex {
	ix := newKeyIndex(cols, t.rows)
	ix.next = ix.next[:t.rows]
	w := len(t.Vars)
	for i := t.rows - 1; i >= 0; i-- {
		k := ix.key(t.data[i*w:(i+1)*w], cols)
		s := ix.lookup(k)
		if ix.heads[s] == 0 {
			ix.keys[s] = k
			ix.used++
		}
		ix.next[i] = ix.heads[s]
		ix.heads[s] = int32(i + 1)
	}
	return ix
}

// resize makes the slot table large enough for n keys at a load factor of
// at most 3/4, re-placing the keys it already holds. Chains are untouched:
// they hang off their slot's head, which moves with its key.
func (ix *keyIndex) resize(n int) {
	size, bits := 8, uint(3)
	for size*3 < n*4 {
		size *= 2
		bits++
	}
	oldKeys, oldHeads := ix.keys, ix.heads
	ix.keys = make([]uint64, size)
	ix.heads = make([]int32, size)
	ix.shift = 64 - bits
	for s, h := range oldHeads {
		if h != 0 {
			t := ix.lookup(oldKeys[s])
			ix.keys[t], ix.heads[t] = oldKeys[s], h
		}
	}
}

// key returns the index key of row's values at cols: the values themselves
// for at most two columns, otherwise their hash.
func (ix *keyIndex) key(row []Value, cols []int) uint64 {
	switch len(cols) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(row[cols[0]]))
	case 2:
		return uint64(uint32(row[cols[0]]))<<32 | uint64(uint32(row[cols[1]]))
	}
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ uint64(uint32(row[c]))) * fibMul
		h ^= h >> 32
	}
	return h & wideHashMask
}

// lookup returns the slot holding key k, or the free slot where k belongs.
func (ix *keyIndex) lookup(k uint64) int {
	mask := len(ix.keys) - 1
	for s := int((k * fibMul) >> ix.shift); ; s = (s + 1) & mask {
		if ix.heads[s] == 0 || ix.keys[s] == k {
			return s
		}
	}
}

// first returns the first row of the chain under key k, or -1; next rows
// follow with after. With a wide key the chain may hold rows of other keys
// sharing k's hash, which the caller filters with equalOn.
func (ix *keyIndex) first(k uint64) int {
	return int(ix.heads[ix.lookup(k)]) - 1
}

// after returns the row following row j in its chain, or -1.
func (ix *keyIndex) after(j int) int { return int(ix.next[j]) - 1 }

// find returns an indexed row whose key columns equal row's values at cols,
// or -1. data is the backing array of the indexed rows, width their length.
func (ix *keyIndex) find(data []Value, width int, row []Value, cols []int) int {
	j := ix.first(ix.key(row, cols))
	if !ix.wide {
		return j
	}
	for ; j >= 0; j = ix.after(j) {
		if equalOn(row, cols, data[j*width:(j+1)*width], ix.cols) {
			return j
		}
	}
	return -1
}

// insert adds row, keyed on the index's own key columns, as the next row
// number (the number of rows inserted so far) unless an indexed row already
// has its key; it reports whether row was added. data holds the rows
// inserted so far, width values each; row itself may lie anywhere. The
// caller stores an added row at its new number in data.
func (ix *keyIndex) insert(data []Value, width int, row []Value) bool {
	if (ix.used+1)*4 > len(ix.keys)*3 {
		ix.resize(2*ix.used + 1)
	}
	k := ix.key(row, ix.cols)
	s := ix.lookup(k)
	if h := ix.heads[s]; h != 0 {
		if !ix.wide {
			return false
		}
		for j := int(h) - 1; j >= 0; j = ix.after(j) {
			if equalOn(row, ix.cols, data[j*width:(j+1)*width], ix.cols) {
				return false
			}
		}
	} else {
		ix.keys[s] = k
		ix.used++
	}
	ix.next = append(ix.next, ix.heads[s])
	ix.heads[s] = int32(len(ix.next))
	return true
}

// clone returns an independent copy of the index.
func (ix *keyIndex) clone() *keyIndex {
	c := *ix
	c.keys = append([]uint64(nil), ix.keys...)
	c.heads = append([]int32(nil), ix.heads...)
	c.next = append([]int32(nil), ix.next...)
	return &c
}

// equalOn reports whether a's values at acols equal b's at bcols, pairwise.
func equalOn(a []Value, acols []int, b []Value, bcols []int) bool {
	for i, c := range acols {
		if a[c] != b[bcols[i]] {
			return false
		}
	}
	return true
}
