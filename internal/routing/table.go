package routing

import "loopscope/internal/packet"

// Table is a longest-prefix-match routing table mapping prefixes to
// values of type V (a next hop, a RIB entry, ...). It is implemented
// as a binary trie keyed on address bits; lookups walk at most 32
// nodes and remember the deepest entry seen.
//
// Table is not safe for concurrent mutation; the simulator serialises
// all FIB updates through the event loop.
type Table[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	set   bool
	value V
}

// NewTable returns an empty table.
func NewTable[V any]() *Table[V] {
	return &Table[V]{root: &trieNode[V]{}}
}

// Len returns the number of prefixes in the table.
func (t *Table[V]) Len() int { return t.size }

// bitAt returns bit i (0 = most significant) of the address.
func bitAt(a uint32, i int) int {
	return int(a >> (31 - i) & 1)
}

// Insert adds or replaces the entry for prefix.
func (t *Table[V]) Insert(p Prefix, v V) {
	n := t.root
	a := p.Addr.Uint32()
	for i := 0; i < p.Bits; i++ {
		b := bitAt(a, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.set = true
	n.value = v
}

// Remove deletes the entry for prefix, reporting whether it existed.
// Trie nodes are left in place; tables in this system are small and
// rebuilt wholesale on FIB updates, so path compression is not worth
// the complexity.
func (t *Table[V]) Remove(p Prefix) bool {
	n := t.root
	a := p.Addr.Uint32()
	for i := 0; i < p.Bits; i++ {
		b := bitAt(a, i)
		if n.child[b] == nil {
			return false
		}
		n = n.child[b]
	}
	if !n.set {
		return false
	}
	n.set = false
	var zero V
	n.value = zero
	t.size--
	return true
}

// Get returns the exact-match entry for prefix.
func (t *Table[V]) Get(p Prefix) (V, bool) {
	n := t.root
	a := p.Addr.Uint32()
	for i := 0; i < p.Bits; i++ {
		b := bitAt(a, i)
		if n.child[b] == nil {
			var zero V
			return zero, false
		}
		n = n.child[b]
	}
	return n.value, n.set
}

// Lookup performs a longest-prefix match for addr, returning the value
// and the matched prefix.
func (t *Table[V]) Lookup(addr packet.Addr) (V, Prefix, bool) {
	a := addr.Uint32()
	n := t.root
	var (
		best     V
		bestLen  = -1
		foundAny bool
	)
	if n.set {
		best, bestLen, foundAny = n.value, 0, true
	}
	for i := 0; i < 32 && n != nil; i++ {
		n = n.child[bitAt(a, i)]
		if n != nil && n.set {
			best, bestLen, foundAny = n.value, i+1, true
		}
	}
	if !foundAny {
		var zero V
		return zero, Prefix{}, false
	}
	return best, NewPrefix(addr, bestLen), true
}

// Walk visits every entry in the table in prefix order (shorter
// prefixes first within a branch, 0-bit subtree before 1-bit). The
// walk stops early if fn returns false.
func (t *Table[V]) Walk(fn func(Prefix, V) bool) {
	t.walk(t.root, 0, 0, fn)
}

func (t *Table[V]) walk(n *trieNode[V], addr uint32, depth int, fn func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set {
		if !fn(NewPrefix(packet.AddrFromUint32(addr), depth), n.value) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if !t.walk(n.child[0], addr, depth+1, fn) {
		return false
	}
	return t.walk(n.child[1], addr|1<<(31-depth), depth+1, fn)
}

// Entry is one routing-table row.
type Entry[V any] struct {
	Prefix Prefix
	Value  V
}

// Clone returns a deep copy of the table structure (values are copied
// by assignment).
func (t *Table[V]) Clone() *Table[V] {
	c := NewTable[V]()
	t.Walk(func(p Prefix, v V) bool {
		c.Insert(p, v)
		return true
	})
	return c
}
