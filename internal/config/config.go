// Package config represents global configurations of a Boolean cellular
// automaton: assignments {0,1}^V over the nodes of a cellular space.
//
// A configuration is a thin wrapper around a bitvec.Vector that adds CA
// vocabulary (density, quiescence, alternation) and the index bijection used
// by the phase-space enumerator: for n ≤ 64 nodes, every configuration has a
// canonical uint64 index (bit i = state of node i), so that entire
// configuration spaces can be stored in dense arrays.
package config

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
)

// Config is a global CA configuration. The zero value is unusable; use New,
// Parse, FromIndex, or Random.
type Config struct {
	v *bitvec.Vector
}

// New returns the all-quiescent (all-zero) configuration on n nodes.
func New(n int) Config { return Config{v: bitvec.New(n)} }

// Wrap adopts an existing bit vector as a configuration (no copy).
func Wrap(v *bitvec.Vector) Config { return Config{v: v} }

// Parse builds a configuration from a '0'/'1' string; s[i] is node i.
func Parse(s string) (Config, error) {
	v, err := bitvec.Parse(s)
	if err != nil {
		return Config{}, err
	}
	return Config{v: v}, nil
}

// MustParse is Parse that panics on error.
func MustParse(s string) Config {
	c, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}

// FromIndex returns the configuration on n ≤ 64 nodes whose node i holds bit
// i of idx. It is the inverse of Index.
func FromIndex(idx uint64, n int) Config {
	if n > 64 {
		panic(fmt.Sprintf("config: FromIndex needs n ≤ 64, got %d", n))
	}
	return Config{v: bitvec.FromUint(idx, n)}
}

// Random returns a configuration on n nodes where each node is 1
// independently with probability p, drawn from rng.
func Random(rng *rand.Rand, n int, p float64) Config {
	c := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			c.v.Set(i)
		}
	}
	return c
}

// Alternating returns the configuration (01)^... on n nodes starting with
// the given phase: phase 0 gives 0101…, phase 1 gives 1010…. These are the
// two configurations of Lemma 1(i)'s parallel 2-cycle.
func Alternating(n int, phase uint8) Config {
	c := New(n)
	for i := 0; i < n; i++ {
		if (uint8(i)+phase)&1 == 1 {
			c.v.Set(i)
		}
	}
	return c
}

// AlternatingBlocks returns the configuration of period-2r blocks
// 0^r 1^r 0^r 1^r …, the Corollary 1 construction σ(r) that yields a
// parallel 2-cycle for MAJORITY of radius r on suitable ring sizes
// (n divisible by 2r). phase=1 starts with the 1-block.
func AlternatingBlocks(n, r int, phase uint8) Config {
	if r < 1 {
		panic(fmt.Sprintf("config: block radius %d < 1", r))
	}
	c := New(n)
	for i := 0; i < n; i++ {
		if (uint8(i/r)+phase)&1 == 1 {
			c.v.Set(i)
		}
	}
	return c
}

// FromParts returns the configuration that assigns each node the value
// part[node]&1 — used to build Corollary 1's 2-cycles on bipartite spaces
// from a bipartition.
func FromParts(part []uint8) Config {
	c := New(len(part))
	for i, p := range part {
		if p&1 == 1 {
			c.v.Set(i)
		}
	}
	return c
}

// N returns the number of nodes.
func (c Config) N() int { return c.v.Len() }

// Get returns the state of node i.
func (c Config) Get(i int) uint8 { return c.v.Bit(i) }

// Set assigns state b to node i, mutating c in place.
func (c Config) Set(i int, b uint8) { c.v.SetBit(i, b) }

// Vector exposes the backing bit vector (shared, not copied).
func (c Config) Vector() *bitvec.Vector { return c.v }

// Clone returns an independent copy.
func (c Config) Clone() Config { return Config{v: c.v.Clone()} }

// CopyFrom overwrites c with src (lengths must match).
func (c Config) CopyFrom(src Config) { c.v.CopyFrom(src.v) }

// Equal reports whether two configurations agree on every node.
func (c Config) Equal(o Config) bool { return c.v.Equal(o.v) }

// Index returns the canonical uint64 index of c (n ≤ 64 nodes).
func (c Config) Index() uint64 { return c.v.Uint() }

// Ones returns the number of nodes in state 1.
func (c Config) Ones() int { return c.v.Count() }

// Density returns the fraction of nodes in state 1.
func (c Config) Density() float64 {
	if c.N() == 0 {
		return 0
	}
	return float64(c.Ones()) / float64(c.N())
}

// Quiescent reports whether every node is 0.
func (c Config) Quiescent() bool { return c.v.Zero() }

// Complement returns the node-wise complement of c.
func (c Config) Complement() Config {
	out := bitvec.New(c.N())
	out.Not(c.v)
	return Config{v: out}
}

// Hash returns a 64-bit content hash (delegates to bitvec).
func (c Config) Hash() uint64 { return c.v.Hash() }

// String renders the configuration as a '0'/'1' string.
func (c Config) String() string { return c.v.String() }

// Gather copies the states of the given nodes, in order, into dst
// (len(dst) must equal len(nodes)) and returns dst. It is the inner loop of
// every scalar engine: assembling a rule's ordered neighborhood view.
func (c Config) Gather(nodes []int, dst []uint8) []uint8 {
	if len(dst) != len(nodes) {
		panic(fmt.Sprintf("config: Gather dst length %d != %d nodes", len(dst), len(nodes)))
	}
	for k, j := range nodes {
		dst[k] = c.v.Bit(j)
	}
	return dst
}

// MaxEnumNodes is the single source of truth for how many nodes a full
// 2^n configuration-space enumeration may have. Space, SpaceRange and the
// phase-space builders (phasespace.MaxParallelNodes) all derive their caps
// from this constant so the limits cannot drift apart. The cap is set by
// the streaming (table-free) classifier, which regenerates successors
// blockwise and keeps ~5–6 bytes of classification state per
// configuration: at the current value that is ~6 GiB of bitsets and
// labels for 2^30 configurations. A dense uint32 successor array
// (2^30 × 4 B = 4 GiB) is still buildable but no longer the frontier;
// the builders switch to streaming automatically past the memory budget
// (phasespace.BuildOptions).
const MaxEnumNodes = 30

// Space enumerates all 2^n configurations on n ≤ MaxEnumNodes nodes,
// invoking visit with a reused Config for each index in increasing order.
// The Config passed to visit is overwritten between calls; clone it to
// retain it.
func Space(n int, visit func(idx uint64, c Config)) {
	if n > MaxEnumNodes {
		panic(fmt.Sprintf("config: refusing to enumerate 2^%d configurations (cap %d)", n, MaxEnumNodes))
	}
	SpaceRange(n, 0, uint64(1)<<uint(n), visit)
}

// SpaceRange enumerates the configuration indices [lo, hi) on
// n ≤ MaxEnumNodes nodes, invoking visit with a reused Config for each index
// in increasing order. It is the sharding primitive of the parallel
// phase-space builders: each worker enumerates its own index range with its
// own scratch Config. The Config passed to visit is overwritten between
// calls; clone it to retain it.
func SpaceRange(n int, lo, hi uint64, visit func(idx uint64, c Config)) {
	if n > MaxEnumNodes {
		panic(fmt.Sprintf("config: refusing to enumerate 2^%d configurations (cap %d)", n, MaxEnumNodes))
	}
	if total := uint64(1) << uint(n); hi > total {
		panic(fmt.Sprintf("config: SpaceRange [%d,%d) exceeds 2^%d configurations", lo, hi, n))
	}
	c := New(n)
	for idx := lo; idx < hi; idx++ {
		setFromIndex(c, idx)
		visit(idx, c)
	}
}

func setFromIndex(c Config, idx uint64) {
	words := c.v.Words()
	if len(words) > 0 {
		words[0] = idx
	}
	c.v.Normalize()
}
