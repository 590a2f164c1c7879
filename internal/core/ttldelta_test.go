package core

import (
	"math/rand"
	"testing"
	"time"
)

// refTTLDelta is the map-counting TTLDelta that the array count
// replaced, kept as the reference: the most common decrement, the
// smaller on a tie, 0 below two replicas.
func refTTLDelta(s *ReplicaStream) int {
	counts := make(map[int]int)
	for i := 1; i < len(s.Replicas); i++ {
		d := int(s.Replicas[i-1].TTL) - int(s.Replicas[i].TTL)
		counts[d]++
	}
	best, bestN := 0, 0
	for d, n := range counts {
		if n > bestN || (n == bestN && d < best) {
			best, bestN = d, n
		}
	}
	return best
}

func refEscaped(s *ReplicaStream) bool {
	return int(s.LastTTL()) > refTTLDelta(s) && refTTLDelta(s) > 0
}

// TestTTLDeltaMatchesReference: TTLDelta and Escaped agree with the
// map-counting reference on random replica sequences — 1 to 64
// replicas, decrements 1 to 8 — on sequences built to tie two
// decrements, and on TTLs that wrap, rise or repeat.
func TestTTLDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stream := func(ttls []uint8) *ReplicaStream {
		s := &ReplicaStream{}
		for i, ttl := range ttls {
			s.Replicas = append(s.Replicas, Replica{Time: time.Duration(i) * time.Millisecond, TTL: ttl, Index: i})
		}
		return s
	}
	check := func(ttls []uint8) {
		t.Helper()
		s := stream(ttls)
		if got, want := s.TTLDelta(), refTTLDelta(s); got != want {
			t.Fatalf("TTLs %v: TTLDelta %d, reference %d", ttls, got, want)
		}
		if got, want := s.Escaped(), refEscaped(s); got != want {
			t.Fatalf("TTLs %v: Escaped %v, reference %v", ttls, got, want)
		}
	}
	// Decrements as given, from a start TTL (uint8 arithmetic wraps).
	walk := func(start uint8, deltas []int) []uint8 {
		ttls := []uint8{start}
		for _, d := range deltas {
			ttls = append(ttls, ttls[len(ttls)-1]-uint8(d))
		}
		return ttls
	}
	for _, ttl := range []uint8{0, 1, 2, 64, 255} {
		check([]uint8{ttl}) // a single replica has no decrement
	}
	check([]uint8{10, 10, 10})     // all zero
	check([]uint8{0, 255, 0, 255}) // -255 and 255, tied
	check([]uint8{255, 0})         // 255
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(64)
		deltas := make([]int, n-1)
		for j := range deltas {
			deltas[j] = 1 + rng.Intn(8)
		}
		if i%3 == 0 && n >= 3 {
			// Force a tie: two decrements, each half of the sequence.
			a, b := 1+rng.Intn(8), 1+rng.Intn(8)
			for j := range deltas {
				deltas[j] = a
				if j%2 == 1 {
					deltas[j] = b
				}
			}
			if len(deltas)%2 == 1 {
				deltas = deltas[:len(deltas)-1]
			}
			rng.Shuffle(len(deltas), func(x, y int) { deltas[x], deltas[y] = deltas[y], deltas[x] })
		}
		if i%7 == 0 && len(deltas) > 0 {
			deltas[rng.Intn(len(deltas))] = -rng.Intn(8) // a rise or a repeat
		}
		check(walk(uint8(rng.Intn(256)), deltas))
	}
}
