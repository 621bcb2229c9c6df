package config

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewQuiescent(t *testing.T) {
	c := New(10)
	if !c.Quiescent() || c.Ones() != 0 || c.N() != 10 {
		t.Error("New should be all-quiescent")
	}
}

func TestParseString(t *testing.T) {
	c := MustParse("0110")
	if c.String() != "0110" {
		t.Errorf("round trip = %q", c.String())
	}
	if c.Get(0) != 0 || c.Get(1) != 1 || c.Get(2) != 1 || c.Get(3) != 0 {
		t.Error("Get wrong")
	}
	if _, err := Parse("01a"); err == nil {
		t.Error("bad parse accepted")
	}
}

func TestSetGet(t *testing.T) {
	c := New(5)
	c.Set(2, 1)
	if c.Get(2) != 1 {
		t.Error("Set(2,1) lost")
	}
	c.Set(2, 0)
	if c.Get(2) != 0 {
		t.Error("Set(2,0) lost")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 8, 16} {
		max := uint64(1) << uint(n)
		step := max/64 + 1
		for idx := uint64(0); idx < max; idx += step {
			c := FromIndex(idx, n)
			if c.Index() != idx {
				t.Errorf("n=%d idx=%d round trip gave %d", n, idx, c.Index())
			}
		}
	}
}

// TestIndexRoundTrip64 covers the full-width index: all 64 bits survive.
func TestIndexRoundTrip64(t *testing.T) {
	for _, idx := range []uint64{0, 1, 1 << 63, 0xDEADBEEFCAFEF00D, ^uint64(0)} {
		c := FromIndex(idx, 64)
		if c.Index() != idx || c.Ones() != bits.OnesCount64(idx) {
			t.Errorf("n=64 idx=%#x round trip gave %#x (%d ones)", idx, c.Index(), c.Ones())
		}
	}
}

func TestFromIndexTooWidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromIndex(·,65) did not panic")
		}
	}()
	FromIndex(0, 65)
}

func TestAlternating(t *testing.T) {
	if got := Alternating(6, 0).String(); got != "010101" {
		t.Errorf("Alternating(6,0) = %q", got)
	}
	if got := Alternating(6, 1).String(); got != "101010" {
		t.Errorf("Alternating(6,1) = %q", got)
	}
	// The two phases are complements on even n.
	a, b := Alternating(8, 0), Alternating(8, 1)
	if !a.Complement().Equal(b) {
		t.Error("phases should be complements")
	}
}

func TestAlternatingBlocks(t *testing.T) {
	if got := AlternatingBlocks(8, 2, 1).String(); got != "11001100" {
		t.Errorf("AlternatingBlocks(8,2,1) = %q", got)
	}
	if got := AlternatingBlocks(12, 3, 0).String(); got != "000111000111" {
		t.Errorf("AlternatingBlocks(12,3,0) = %q", got)
	}
	// r=1 blocks coincide with Alternating at the same phase.
	if !AlternatingBlocks(6, 1, 1).Equal(Alternating(6, 1)) {
		t.Error("r=1 blocks should equal alternating at same phase")
	}
}

func TestFromParts(t *testing.T) {
	c := FromParts([]uint8{0, 1, 1, 0})
	if c.String() != "0110" {
		t.Errorf("FromParts = %q", c.String())
	}
}

func TestDensityAndOnes(t *testing.T) {
	c := MustParse("1100")
	if c.Ones() != 2 {
		t.Errorf("Ones = %d", c.Ones())
	}
	if c.Density() != 0.5 {
		t.Errorf("Density = %f", c.Density())
	}
	if New(0).Density() != 0 {
		t.Error("empty density should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustParse("0101")
	b := a.Clone()
	b.Set(0, 1)
	if a.Get(0) != 0 {
		t.Error("Clone shares storage")
	}
}

func TestCopyFromAndEqual(t *testing.T) {
	a := MustParse("0101")
	b := New(4)
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Error("CopyFrom/Equal broken")
	}
}

func TestComplement(t *testing.T) {
	c := MustParse("0101")
	if c.Complement().String() != "1010" {
		t.Errorf("Complement = %q", c.Complement().String())
	}
	if !c.Complement().Complement().Equal(c) {
		t.Error("Complement not involutive")
	}
}

func TestGather(t *testing.T) {
	c := MustParse("01101")
	dst := make([]uint8, 3)
	got := c.Gather([]int{4, 0, 2}, dst)
	want := []uint8{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Gather = %v, want %v", got, want)
		}
	}
}

func TestGatherLengthPanics(t *testing.T) {
	c := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Gather did not panic")
		}
	}()
	c.Gather([]int{0, 1}, make([]uint8, 3))
}

func TestSpaceEnumeration(t *testing.T) {
	var seen []uint64
	Space(3, func(idx uint64, c Config) {
		seen = append(seen, idx)
		if c.Index() != idx {
			t.Errorf("config at idx %d has Index %d", idx, c.Index())
		}
	})
	if len(seen) != 8 {
		t.Fatalf("enumerated %d configs, want 8", len(seen))
	}
	for i, idx := range seen {
		if uint64(i) != idx {
			t.Errorf("enumeration order broken at %d", i)
		}
	}
}

func TestSpaceRefusesHuge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Space(%d,·) did not panic", MaxEnumNodes+1)
		}
	}()
	Space(MaxEnumNodes+1, func(uint64, Config) {})
}

func TestSpaceRangeMatchesSpace(t *testing.T) {
	n := 5
	total := uint64(1) << uint(n)
	// Stitch the full space back together from three uneven shards.
	var got []uint64
	for _, r := range [][2]uint64{{0, 7}, {7, 24}, {24, total}} {
		SpaceRange(n, r[0], r[1], func(idx uint64, c Config) {
			if c.Index() != idx {
				t.Errorf("shard config at idx %d has Index %d", idx, c.Index())
			}
			got = append(got, idx)
		})
	}
	if uint64(len(got)) != total {
		t.Fatalf("shards produced %d configs, want %d", len(got), total)
	}
	for i, idx := range got {
		if uint64(i) != idx {
			t.Fatalf("shard stitching broken at %d: got %d", i, idx)
		}
	}
	// An empty range visits nothing.
	SpaceRange(n, 9, 9, func(uint64, Config) { t.Fatal("empty range visited") })
}

func TestSpaceRangeRefusesOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SpaceRange did not panic")
		}
	}()
	SpaceRange(3, 0, 9, func(uint64, Config) {})
}

func TestRandomDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	c := Random(rng, n, 0.3)
	d := c.Density()
	if d < 0.25 || d > 0.35 {
		t.Errorf("Random density %f far from 0.3", d)
	}
	if got := Random(rng, 100, 0).Ones(); got != 0 {
		t.Errorf("p=0 produced %d ones", got)
	}
	if got := Random(rng, 100, 1).Ones(); got != 100 {
		t.Errorf("p=1 produced %d ones", got)
	}
}

func TestIndexBijectionQuick(t *testing.T) {
	f := func(idx uint64, nRaw uint8) bool {
		n := int(nRaw)%63 + 1
		masked := idx & (uint64(1)<<uint(n) - 1)
		return FromIndex(masked, n).Index() == masked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComplementOnesQuick(t *testing.T) {
	f := func(idx uint64, nRaw uint8) bool {
		n := int(nRaw)%63 + 1
		c := FromIndex(idx&(uint64(1)<<uint(n)-1), n)
		return c.Ones()+c.Complement().Ones() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func FuzzParseIndexConsistency(f *testing.F) {
	f.Add("010")
	f.Add("1111")
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil || c.N() == 0 || c.N() > 63 {
			return
		}
		// Index/FromIndex must agree with the parsed representation.
		if got := FromIndex(c.Index(), c.N()); !got.Equal(c) {
			t.Fatalf("index round trip changed %s to %s", c, got)
		}
	})
}
