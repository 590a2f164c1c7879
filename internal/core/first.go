package core

import (
	"bytes"
	"math/bits"
	"time"
)

// The first-observation table: 999 packets in 1,000 are never seen
// again, so a first observation is a pointer-free value, not a builder.
// It is k generations, each a dense append-only array of entries, an
// open-addressed index into it and an arena for capture bytes past
// keyBytes, looked up newest first. Every MaxReplicaGap ÷ (k−1) of trace
// clock the oldest is cleared and reused as the newest — once nothing in
// it is live, so k and capacity decide memory, never a match. Live
// entries in arrival order are in last-activity order (Detector.coldest).

const (
	defaultGenerations = 4       // k: at most 4/3 of the live entries held, four probes a miss
	minSlots           = 1 << 10 // a generation's first index size
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
	slots []uint32 // 0 empty, else a tag OR'ed with an index into obs plus one
	rests []uint32
	arena []byte
	start time.Duration // trace clock when it became the newest
	dead  int
}

type firstTable struct {
	gens   []generation
	newest int
	period time.Duration
	live   int
	// entryReads counts entries a lookup loaded to compare; tests read it.
	entryReads int
}

func newFirstTable(k, slots int, gap time.Duration) firstTable {
	ft := firstTable{gens: make([]generation, k), period: gap / time.Duration(k-1)}
	for i := range ft.gens {
		ft.gens[i].slots = make([]uint32, slots)
	}
	return ft
}

func (ft *firstTable) gen(back int) *generation {
	i := ft.newest - back
	if i < 0 {
		i += len(ft.gens)
	}
	return &ft.gens[i]
}

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
	for back := range ft.gens {
		g := ft.gen(back)
		mask := uint32(len(g.slots) - 1)
		tag := tagOf(h, mask)
		for p := uint32(h) & mask; g.slots[p] != 0; p = (p + 1) & mask {
			if g.slots[p]&^mask != tag {
				continue
			}
			ft.entryReads++
			i := int(g.slots[p]&mask - 1)
			if e := &g.obs[i]; e.n == uint32(key.n) && e.head == key.head && bytes.Equal(g.restOf(i), rest) {
				return e
			}
		}
	}
	return nil
}

// insert adds an entry to the newest generation, whose index it keeps
// at most half full.
func (ft *firstTable) insert(h, seed uint64, key *replicaKey, rest []byte, rep Replica, seq int) {
	g := ft.gen(0)
	if 2*(len(g.obs)+1) > len(g.slots) {
		g.slots = make([]uint32, 2*len(g.slots))
		for i, e := range g.obs {
			if e.n != 0 {
				k := replicaKey{head: e.head, n: int(e.n), restHash: fnv64a(g.restOf(i))}
				g.place(k.index(seed), i)
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
	g.place(h, len(g.obs)-1)
	ft.live++
}

func (g *generation) place(h uint64, i int) {
	mask := uint32(len(g.slots) - 1)
	p := uint32(h) & mask
	for g.slots[p] != 0 {
		p = (p + 1) & mask
	}
	g.slots[p] = tagOf(h, mask) | uint32(i+1)
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

// rotate clears the oldest generation and makes it the newest, once the
// newest has taken entries for a period and nothing in the oldest is
// live. A trace clock that runs backwards delays rotation.
func (ft *firstTable) rotate(now time.Duration) {
	old := ft.gen(len(ft.gens) - 1)
	if now-ft.gen(0).start < ft.period || ft.coldest() != nil && old.dead < len(old.obs) {
		return
	}
	old.obs, old.rests, old.arena, old.dead = old.obs[:0], old.rests[:0], old.arena[:0], 0
	clear(old.slots)
	old.start = now
	if ft.newest++; ft.newest == len(ft.gens) {
		ft.newest = 0
	}
}
