package routing

import (
	"encoding/json"
	"fmt"
	"testing"
	"testing/quick"

	"loopscope/internal/packet"
	"loopscope/internal/stats"
)

func TestPrefixParseAndString(t *testing.T) {
	p := MustParsePrefix("10.1.2.3/24")
	if p.String() != "10.1.2.0/24" {
		t.Errorf("host bits not masked: %v", p)
	}
	if MustParsePrefix("0.0.0.0/0").String() != "0.0.0.0/0" {
		t.Error("default route mangled")
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0/8", "x/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", bad)
		}
	}
}

// TestPrefixStringMatchesFmt: every octet value in every position, and
// every length from 0 to 32, formats as fmt's "%s/%d" did.
func TestPrefixStringMatchesFmt(t *testing.T) {
	for bits := 0; bits <= 32; bits++ {
		for pos := range 4 {
			for v := range 256 {
				p := Prefix{Addr: packet.AddrFrom(10, 200, 3, 44), Bits: bits}
				p.Addr[pos] = byte(v)
				a := p.Addr
				if got, want := p.String(), fmt.Sprintf("%d.%d.%d.%d/%d", a[0], a[1], a[2], a[3], bits); got != want {
					t.Fatalf("Prefix{%v, %d}.String() = %q, want %q", [4]byte(a), bits, got, want)
				}
			}
		}
	}
}

var sink string

// TestPrefixStringAllocationBudget: the string is the one allocation.
func TestPrefixStringAllocationBudget(t *testing.T) {
	p := MustParsePrefix("255.255.255.255/32")
	if n := testing.AllocsPerRun(100, func() { sink = p.String() }); n > 1 {
		t.Errorf("Prefix.String allocates %v times, budget 1", n)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.168.4.0/22")
	for _, in := range []string{"192.168.4.0", "192.168.5.99", "192.168.7.255"} {
		if !p.Contains(packet.MustParseAddr(in)) {
			t.Errorf("%v should contain %s", p, in)
		}
	}
	for _, out := range []string{"192.168.8.0", "192.168.3.255", "10.0.0.1"} {
		if p.Contains(packet.MustParseAddr(out)) {
			t.Errorf("%v should not contain %s", p, out)
		}
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(packet.MustParseAddr("255.255.255.255")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
	if !a.Overlaps(a) {
		t.Error("prefix must overlap itself")
	}
}

func TestPrefixEquality(t *testing.T) {
	// Masked construction makes equal networks comparable.
	if NewPrefix(packet.MustParseAddr("10.1.2.3"), 24) != NewPrefix(packet.MustParseAddr("10.1.2.200"), 24) {
		t.Error("same /24 from different hosts not equal")
	}
}

func TestPrefixRange(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi uint64
	}{
		{"0.0.0.0/0", 0, 1 << 32},
		{"128.0.0.0/1", 1 << 31, 1 << 32},
		{"10.0.0.0/8", 0x0A000000, 0x0B000000},
		{"255.255.255.255/32", 0xFFFFFFFF, 1 << 32},
	} {
		lo, hi := MustParsePrefix(tc.in).Range()
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: Range() = [%d,%d), want [%d,%d)", tc.in, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestPrefixJSONRoundTrip(t *testing.T) {
	in := MustParsePrefix("198.51.100.0/24")
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"198.51.100.0/24"` {
		t.Fatalf("marshalled %s", b)
	}
	var out Prefix
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip %v != %v", out, in)
	}
	if err := json.Unmarshal([]byte(`"not-a-prefix"`), &out); err == nil {
		t.Fatal("bad prefix accepted")
	}
	// Usable as a JSON map key.
	m := map[Prefix]int{in: 3}
	b, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back map[Prefix]int
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[in] != 3 {
		t.Fatalf("map round trip: %v", back)
	}
}

func TestTableExactMatch(t *testing.T) {
	tbl := NewTable[string]()
	tbl.Insert(MustParsePrefix("10.0.0.0/8"), "eight")
	tbl.Insert(MustParsePrefix("10.1.0.0/16"), "sixteen")
	if v, ok := tbl.Get(MustParsePrefix("10.0.0.0/8")); !ok || v != "eight" {
		t.Errorf("Get /8 = %v %v", v, ok)
	}
	if _, ok := tbl.Get(MustParsePrefix("10.0.0.0/9")); ok {
		t.Error("nonexistent exact prefix found")
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Replace does not grow.
	tbl.Insert(MustParsePrefix("10.0.0.0/8"), "EIGHT")
	if tbl.Len() != 2 {
		t.Errorf("replace grew table to %d", tbl.Len())
	}
}

func TestTableLongestPrefixMatch(t *testing.T) {
	tbl := NewTable[string]()
	tbl.Insert(MustParsePrefix("0.0.0.0/0"), "default")
	tbl.Insert(MustParsePrefix("10.0.0.0/8"), "ten")
	tbl.Insert(MustParsePrefix("10.1.0.0/16"), "ten-one")
	tbl.Insert(MustParsePrefix("10.1.2.0/24"), "ten-one-two")

	cases := []struct {
		addr string
		want string
		bits int
	}{
		{"10.1.2.3", "ten-one-two", 24},
		{"10.1.9.9", "ten-one", 16},
		{"10.200.0.1", "ten", 8},
		{"8.8.8.8", "default", 0},
	}
	for _, c := range cases {
		v, p, ok := tbl.Lookup(packet.MustParseAddr(c.addr))
		if !ok || v != c.want || p.Bits != c.bits {
			t.Errorf("Lookup(%s) = %v %v %v, want %s /%d", c.addr, v, p, ok, c.want, c.bits)
		}
	}

	tbl.Remove(MustParsePrefix("0.0.0.0/0"))
	if _, _, ok := tbl.Lookup(packet.MustParseAddr("8.8.8.8")); ok {
		t.Error("lookup matched after default removed")
	}
}

func TestTableRemove(t *testing.T) {
	tbl := NewTable[int]()
	p := MustParsePrefix("172.16.0.0/12")
	tbl.Insert(p, 1)
	if !tbl.Remove(p) {
		t.Error("Remove returned false for existing prefix")
	}
	if tbl.Remove(p) {
		t.Error("Remove returned true for missing prefix")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d after removal", tbl.Len())
	}
}

func TestTableWalkOrderAndClone(t *testing.T) {
	tbl := NewTable[int]()
	ps := []string{"10.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "192.168.0.0/16"}
	for i, s := range ps {
		tbl.Insert(MustParsePrefix(s), i)
	}
	var walked []string
	tbl.Walk(func(p Prefix, v int) bool {
		walked = append(walked, p.String())
		return true
	})
	want := []string{"10.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "192.168.0.0/16"}
	if len(walked) != len(want) {
		t.Fatalf("walked %v", walked)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Errorf("walk[%d] = %s, want %s", i, walked[i], want[i])
		}
	}

	c := tbl.Clone()
	c.Insert(MustParsePrefix("1.0.0.0/8"), 99)
	if tbl.Len() == c.Len() {
		t.Error("clone shares structure with original")
	}

	// Early termination.
	n := 0
	tbl.Walk(func(Prefix, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("walk visited %d entries after false", n)
	}
}

// TestTableVsLinearScanQuick is the core LPM property test: the trie's
// longest-prefix match must agree with a brute-force linear scan over
// the same entries, for random tables and random lookups.
func TestTableVsLinearScanQuick(t *testing.T) {
	rng := stats.NewRNG(123)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed ^ rng.Uint64())
		type entry struct {
			p Prefix
			v int
		}
		var entries []entry
		tbl := NewTable[int]()
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			p := NewPrefix(packet.AddrFromUint32(r.Uint32()), r.Intn(33))
			// Last insert wins in both models.
			tbl.Insert(p, i)
			replaced := false
			for j := range entries {
				if entries[j].p == p {
					entries[j].v = i
					replaced = true
					break
				}
			}
			if !replaced {
				entries = append(entries, entry{p, i})
			}
		}
		for k := 0; k < 50; k++ {
			var addr packet.Addr
			if k%2 == 0 && len(entries) > 0 {
				// Bias lookups into covered space.
				e := entries[r.Intn(len(entries))]
				addr = packet.AddrFromUint32(e.p.Addr.Uint32() | (r.Uint32() & ^uint32(0) >> uint(e.p.Bits)))
			} else {
				addr = packet.AddrFromUint32(r.Uint32())
			}
			// Linear scan reference.
			bestBits, bestV, found := -1, 0, false
			for _, e := range entries {
				if e.p.Contains(addr) && e.p.Bits > bestBits {
					bestBits, bestV, found = e.p.Bits, e.v, true
				}
			}
			v, p, ok := tbl.Lookup(addr)
			if ok != found {
				return false
			}
			if found && (v != bestV || p.Bits != bestBits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJittered(t *testing.T) {
	rng := stats.NewRNG(9)
	j := Range(10, 20)
	for i := 0; i < 1000; i++ {
		d := j.Draw(rng)
		if d < 10 || d >= 20 {
			t.Fatalf("Draw out of range: %v", d)
		}
	}
	if Fixed(42).Draw(rng) != 42 {
		t.Error("Fixed not fixed")
	}
	// Degenerate range behaves like Fixed(min).
	if (Jittered{Min: 5, Max: 5}).Draw(rng) != 5 {
		t.Error("zero-width range broken")
	}
}
