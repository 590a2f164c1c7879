package core

import (
	"bytes"
	"math/bits"
	"time"
)

// The first-observation table: 999 packets in 1,000 are never seen
// again, so a first observation is a pointer-free value, not a builder.
// It is k generations, each a dense append-only array of entries and an
// arena for capture bytes past keyBytes, and one open-addressed index of
// k-slot buckets whose column i indexes generation i, so a lookup that
// misses every generation reads one bucket. Lookups go newest first.
// Every MaxReplicaGap ÷ (k−1) of trace clock the oldest generation is
// cleared and reused as the newest — once nothing in it is live, so k
// and capacity decide memory, never a match. Live entries in arrival
// order are in last-activity order (Detector.coldest).

const (
	defaultGenerations = 4       // k: at most 4/3 of the live entries held, four probes a miss
	minSlots           = 1 << 10 // the index's first size in buckets
)

// firstObs is a first observation in 64 bytes: key head and n (bytes
// past keyBytes are in the arena; 0 once dead), time, idx<<8|ttl and
// the window sequence number modulo 2³² (prefixState.seqOf).
type firstObs struct {
	head [keyBytes / 8]uint64
	t    time.Duration
	at   uint64
	seq  uint32
	n    uint32
}

func (e *firstObs) idx() int    { return int(e.at >> 8) }
func (e *firstObs) ttl() uint8  { return uint8(e.at) }
func (e *firstObs) net() uint32 { return bits.ReverseBytes32(uint32(e.head[2])) } // IPv4 bytes 16–19

// generation is one of the k arrays. rests holds arena offsets, one per
// entry once any entry has bytes past keyBytes and none before; every
// entry before dead is dead.
type generation struct {
	obs   []firstObs
	rests []uint32
	arena []byte
	start time.Duration // trace clock when it became the newest
	dead  int
}

type firstTable struct {
	gens []generation
	// slots[p*k+i] is generation i's slot p: 0 empty, else a tag OR'ed
	// with an index into its obs plus one. mask is the bucket count − 1.
	slots  []uint32
	mask   uint32
	newest int
	period time.Duration
	live   int
	// entryReads counts entries a lookup loaded to compare; tests read it.
	entryReads int
}

func newFirstTable(k, slots int, gap time.Duration) firstTable {
	return firstTable{gens: make([]generation, k), slots: make([]uint32, k*slots), mask: uint32(slots - 1),
		period: gap / time.Duration(k-1)}
}

// col returns the column of the generation back steps older than the
// newest.
func (ft *firstTable) col(back int) int {
	i := ft.newest - back
	if i < 0 {
		i += len(ft.gens)
	}
	return i
}

func (ft *firstTable) gen(back int) *generation { return &ft.gens[ft.col(back)] }

func (g *generation) restOf(i int) []byte {
	if n := g.obs[i].n; n > keyBytes {
		return g.arena[g.rests[i] : g.rests[i]+n-keyBytes]
	}
	return nil
}

// A slot holds an entry's index plus one in the bits under the index
// mask, which an index kept at most half full never outgrows, and above
// them the same bits of h>>32 as a tag: a lookup reads only the entries
// whose tag matches, so a miss almost never leaves the index.
func tagOf(h uint64, mask uint32) uint32 { return uint32(h>>32) &^ mask }

// find returns the live entry with key and rest (h = key.index), or nil.
func (ft *firstTable) find(h uint64, key *replicaKey, rest []byte) *firstObs {
	k, mask := len(ft.gens), ft.mask
	tag := tagOf(h, mask)
	for back := range ft.gens {
		i := ft.col(back)
		for p := uint32(h) & mask; ft.slots[int(p)*k+i] != 0; p = (p + 1) & mask {
			s := ft.slots[int(p)*k+i]
			if s&^mask != tag {
				continue
			}
			ft.entryReads++
			g, j := &ft.gens[i], int(s&mask-1)
			if e := &g.obs[j]; e.n == uint32(key.n) && e.head == key.head && bytes.Equal(g.restOf(j), rest) {
				return e
			}
		}
	}
	return nil
}

// insert adds an entry to the newest generation. The index is kept at
// most half full in every column: the newest column is the fullest one
// at this size, and a doubling re-places the live entries of them all.
func (ft *firstTable) insert(h, seed uint64, key *replicaKey, rest []byte, rep Replica, seq int) {
	g := ft.gen(0)
	if 2*(len(g.obs)+1) > int(ft.mask)+1 {
		ft.slots, ft.mask = make([]uint32, 2*len(ft.slots)), 2*ft.mask+1
		for c := range ft.gens {
			for i, e := range ft.gens[c].obs {
				if e.n != 0 {
					k := replicaKey{head: e.head, n: int(e.n), restHash: fnv64a(ft.gens[c].restOf(i))}
					ft.place(c, k.index(seed), i)
				}
			}
		}
	}
	if len(rest) > 0 || len(g.rests) > 0 {
		g.rests = append(g.rests, make([]uint32, len(g.obs)-len(g.rests))...)
		g.rests = append(g.rests, uint32(len(g.arena)))
		g.arena = append(g.arena, rest...)
	}
	g.obs = append(g.obs, firstObs{head: key.head, t: rep.Time, at: uint64(rep.Index)<<8 | uint64(rep.TTL),
		seq: uint32(seq), n: uint32(key.n)})
	ft.place(ft.newest, h, len(g.obs)-1)
	ft.live++
}

// place puts entry i of the generation in column c into the index.
func (ft *firstTable) place(c int, h uint64, i int) {
	k, p := len(ft.gens), uint32(h)&ft.mask
	for ft.slots[int(p)*k+c] != 0 {
		p = (p + 1) & ft.mask
	}
	ft.slots[int(p)*k+c] = tagOf(h, ft.mask) | uint32(i+1)
}

func (ft *firstTable) drop(e *firstObs) {
	e.n = 0
	ft.live--
}

// coldest returns the earliest-arrived live entry, or nil.
func (ft *firstTable) coldest() *firstObs {
	for back := len(ft.gens) - 1; back >= 0; back-- {
		g := ft.gen(back)
		for ; g.dead < len(g.obs); g.dead++ {
			if e := &g.obs[g.dead]; e.n != 0 {
				return e
			}
		}
	}
	return nil
}

// rotate clears the oldest generation and its index column and makes
// it the newest, once the newest has taken entries for a period and
// nothing in the oldest is live. A trace clock that runs backwards
// delays rotation.
func (ft *firstTable) rotate(now time.Duration) {
	c := ft.col(len(ft.gens) - 1)
	old := &ft.gens[c]
	if now-ft.gen(0).start < ft.period || ft.coldest() != nil && old.dead < len(old.obs) {
		return
	}
	old.obs, old.rests, old.arena, old.dead = old.obs[:0], old.rests[:0], old.arena[:0], 0
	for p := c; p < len(ft.slots); p += len(ft.gens) {
		ft.slots[p] = 0
	}
	old.start = now
	if ft.newest++; ft.newest == len(ft.gens) {
		ft.newest = 0
	}
}
