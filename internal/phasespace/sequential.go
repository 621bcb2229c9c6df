package phasespace

import (
	"repro/internal/automaton"
)

// MaxSequentialNodes bounds full sequential phase-space enumeration. The
// streaming (flip-bitset) representation stores one bit per (state, node)
// pair instead of the dense table's 4 bytes — at the cap that is
// 24 × 2^24 bits = 48 MiB against a 1.5 GiB dense table. The census adds
// two bits per state (the trim and reach bitsets) to the flips; Tarjan's
// ~13 bytes per state are paid only for the states the trim leaves, none
// in an acyclic space. The per-state queries (Acyclic's witness search,
// the state lists) still take 1–9 bytes per state.
const MaxSequentialNodes = 24

// Sequential is the complete nondeterministic phase space of a sequential
// CA: for every configuration x and node i, the configuration reached by
// updating node i in x. It is the union, over all interleaving choices, of
// all possible sequential computations (paper Fig. 1(b) drawn in full).
//
// Two storage modes share the type. Dense mode materializes succ[x*n+i].
// Streaming (flip-bitset) mode exploits the Hamming-1 structure of
// single-node updates: updating node i either fixes x or flips exactly
// bit i, so the whole out-neighborhood of x is determined by n flip
// bits — a 32× compression of the dense table. Flips are stored
// block-major: the 64-configuration block b keeps one 64-bit lane word
// per node i (lane l set ⟺ updating node i changes configuration
// 64b+l), split into lo/hi uint32 pairs so the campaign checkpoint and
// memo machinery (both built on []uint32) apply unchanged.
type Sequential struct {
	n      int
	states uint64   // state count: 2^n for full spaces, the class count for quotient views
	succ   []uint32 // dense mode: succ[x*n + i] = x with node i updated; nil in streaming mode
	flips  []uint32 // streaming mode: flips[(b*n+i)*2] = lo word, +1 = hi word
}

// BuildSequential enumerates every single-node update over the full
// configuration space (n ≤ MaxSequentialNodes). It is
// BuildSequentialWorkers with the default (GOMAXPROCS) worker count.
func BuildSequential(a *automaton.Automaton) *Sequential {
	return BuildSequentialWorkers(a, 0)
}

// N returns the node count.
func (s *Sequential) N() int { return s.n }

// Size returns the number of states: 2^n for a full phase space, the
// number of symmetry classes for a quotient view. Every classification
// method below ranges over [0, Size()) and reads nothing but the successor
// accessor, which is what lets the quotient engine reuse them on class
// ordinals unchanged — and the flip-bitset mode substitute its packed
// representation.
func (s *Sequential) Size() uint64 { return s.states }

// flipWord returns the 64-lane flip word of (block b, node i).
func (s *Sequential) flipWord(b uint64, i int) uint64 {
	at := (b*uint64(s.n) + uint64(i)) * 2
	return uint64(s.flips[at]) | uint64(s.flips[at+1])<<32
}

// Successor returns the configuration reached from x by updating node i.
func (s *Sequential) Successor(x uint64, i int) uint64 {
	if s.succ != nil {
		return uint64(s.succ[x*uint64(s.n)+uint64(i)])
	}
	return x ^ ((s.flipWord(x>>6, i) >> (x & 63) & 1) << uint(i))
}

// IsFixedPoint reports whether every single-node update leaves x unchanged.
// This coincides with the parallel notion of fixed point.
func (s *Sequential) IsFixedPoint(x uint64) bool {
	for i := 0; i < s.n; i++ {
		if s.Successor(x, i) != x {
			return false
		}
	}
	return true
}

// IsPseudoFixedPoint reports whether x has at least one self-loop (some node
// update is a no-op) and at least one changing update: the paper's unstable
// "pseudo-fixed points" of Fig. 1(b), which some sequential computations fix
// and others leave.
func (s *Sequential) IsPseudoFixedPoint(x uint64) bool {
	selfLoop, change := false, false
	for i := 0; i < s.n; i++ {
		if s.Successor(x, i) == x {
			selfLoop = true
		} else {
			change = true
		}
	}
	return selfLoop && change
}

// FixedPoints returns all fixed points, ascending.
func (s *Sequential) FixedPoints() []uint64 {
	var out []uint64
	for x := uint64(0); x < s.Size(); x++ {
		if s.IsFixedPoint(x) {
			out = append(out, x)
		}
	}
	return out
}

// PseudoFixedPoints returns all pseudo-fixed points, ascending.
func (s *Sequential) PseudoFixedPoints() []uint64 {
	var out []uint64
	for x := uint64(0); x < s.Size(); x++ {
		if s.IsPseudoFixedPoint(x) {
			out = append(out, x)
		}
	}
	return out
}

// Acyclic reports whether the sequential phase space is cycle-free in the
// paper's sense: no sequence of single-node updates ever revisits a
// configuration it has left. Equivalently, the digraph of *changing*
// transitions (self-loops removed) has no directed cycle. This finite check
// quantifies over all infinite update sequences at once, which is how the
// repository verifies Lemma 1(ii), Theorem 1 and Lemma 2 exhaustively.
//
// If the space is not acyclic, a witness cycle of configuration indices is
// returned (in order, first configuration repeated implicitly).
func (s *Sequential) Acyclic() (witness []uint64, ok bool) {
	total := s.Size()
	// Iterative DFS three-coloring over the changing-transition digraph.
	colorState := make([]uint8, total) // 0 white, 1 gray, 2 black
	parentEdge := make([]uint32, total)
	type frame struct {
		x    uint32
		next int // next node choice to explore
	}
	var stack []frame
	for start := uint64(0); start < total; start++ {
		if colorState[start] != 0 {
			continue
		}
		stack = append(stack[:0], frame{x: uint32(start)})
		colorState[start] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == s.n {
				colorState[f.x] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			i := f.next
			f.next++
			y := uint32(s.Successor(uint64(f.x), i))
			if y == f.x {
				continue // self-loop: not a proper transition
			}
			switch colorState[y] {
			case 0:
				colorState[y] = 1
				parentEdge[y] = f.x
				stack = append(stack, frame{x: y})
			case 1:
				// Back edge: reconstruct the cycle y → … → f.x → y.
				witness = []uint64{uint64(y)}
				for v := f.x; v != y; v = parentEdge[v] {
					witness = append(witness, uint64(v))
				}
				// reverse into forward order y, …, f.x
				for l, r := 1, len(witness)-1; l < r; l, r = l+1, r-1 {
					witness[l], witness[r] = witness[r], witness[l]
				}
				return witness, false
			}
		}
	}
	return nil, true
}

// ProperCycleStates returns every configuration that lies on some proper
// sequential cycle (a cycle of changing transitions): the states in
// strongly connected components of size ≥ 2 of the changing-transition
// digraph. (A single state cannot form a proper cycle because self-loops
// are excluded.)
func (s *Sequential) ProperCycleStates() []uint64 {
	var out []uint64
	tarjanCycles(s.Size(), s.n, func(x uint64, i int) (uint64, bool) {
		y := s.Successor(x, i)
		return y, y != x
	}, func(x uint32) { out = append(out, uint64(x)) })
	return out
}

// tarjanCycles runs Tarjan's algorithm (iterative) over a digraph on the
// vertices [0, m): edge(v, i) for i < deg returns the target of v's i-th
// out-edge, or false when there is none. emit receives every vertex of
// every strongly connected component of size ≥ 2.
func tarjanCycles(m uint64, deg int, edge func(v uint64, i int) (uint64, bool), emit func(v uint32)) {
	index := make([]int32, m)
	low := make([]int32, m)
	onStack := make([]bool, m)
	for i := range index {
		index[i] = -1
	}
	var sccStack []uint32
	next := int32(0)
	type frame struct {
		x    uint32
		edge int
	}
	var stack []frame
	for start := uint64(0); start < m; start++ {
		if index[start] != -1 {
			continue
		}
		stack = append(stack[:0], frame{x: uint32(start)})
		index[start] = next
		low[start] = next
		next++
		sccStack = append(sccStack, uint32(start))
		onStack[start] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.edge < deg {
				i := f.edge
				f.edge++
				w, ok := edge(uint64(f.x), i)
				if !ok {
					continue
				}
				y := uint32(w)
				if index[y] == -1 {
					index[y] = next
					low[y] = next
					next++
					sccStack = append(sccStack, y)
					onStack[y] = true
					stack = append(stack, frame{x: y})
				} else if onStack[y] && index[y] < low[f.x] {
					low[f.x] = index[y]
				}
				continue
			}
			// Post-order: pop, propagate lowlink, emit SCC if root.
			x := f.x
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[x] < low[p.x] {
					low[p.x] = low[x]
				}
			}
			if low[x] == index[x] {
				top := len(sccStack) - 1
				for sccStack[top] != x {
					top--
				}
				for j := len(sccStack) - 1; j >= top; j-- {
					onStack[sccStack[j]] = false
					if len(sccStack)-top >= 2 {
						emit(sccStack[j])
					}
				}
				sccStack = sccStack[:top]
			}
		}
	}
}

// ReachableFrom returns a bitmap over configuration indices marking every
// configuration reachable from x by any (possibly empty) sequence of
// single-node updates.
func (s *Sequential) ReachableFrom(x uint64) []bool {
	seen := make([]bool, s.Size())
	stack := []uint64{x}
	seen[x] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < s.n; i++ {
			y := s.Successor(v, i)
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return seen
}

// Unreachable returns all configurations with no incoming changing
// transition: the sequential analogue of Garden-of-Eden states. In
// Fig. 1(b), configuration 00 is such a state (a fixed point "not reachable
// from any other configuration").
func (s *Sequential) Unreachable() []uint64 {
	total := s.Size()
	hasPred := make([]bool, total)
	for x := uint64(0); x < total; x++ {
		for i := 0; i < s.n; i++ {
			y := s.Successor(x, i)
			if y != x {
				hasPred[y] = true
			}
		}
	}
	var out []uint64
	for x := uint64(0); x < total; x++ {
		if !hasPred[x] {
			out = append(out, x)
		}
	}
	return out
}

// TwoCycles returns all unordered pairs {x, y} such that some node update
// takes x to y and some node update takes y back to x (x ≠ y): the temporal
// two-cycles visible in Fig. 1(b).
func (s *Sequential) TwoCycles() [][2]uint64 {
	var out [][2]uint64
	total := s.Size()
	for x := uint64(0); x < total; x++ {
		seen := map[uint64]bool{}
		for i := 0; i < s.n; i++ {
			y := s.Successor(x, i)
			if y <= x || seen[y] { // report each pair once
				continue
			}
			seen[y] = true
			for j := 0; j < s.n; j++ {
				if s.Successor(y, j) == x {
					out = append(out, [2]uint64{x, y})
					break
				}
			}
		}
	}
	return out
}

// Edges invokes visit(x, i, y) for every transition (including self-loops),
// for DOT export and integration tests.
func (s *Sequential) Edges(visit func(x uint64, node int, y uint64)) {
	total := s.Size()
	for x := uint64(0); x < total; x++ {
		for i := 0; i < s.n; i++ {
			visit(x, i, s.Successor(x, i))
		}
	}
}
