package phasespace

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Sequential-space classification beyond acyclicity: the nondeterministic
// phase space supports the modal questions the paper's Fig. 1(b) discussion
// raises — which configurations *can* reach a fixed point under some
// interleaving (EF fp), and which can be trapped forever in cycles. For the
// two-node XOR SCA the answers are stark: from 01, 10 and 11 no fixed point
// is reachable at all, so every maximal sequential computation loops among
// pseudo-fixed points and 2-cycles.

// SequentialCensus summarizes a sequential phase space.
type SequentialCensus struct {
	Nodes            int
	Configs          uint64
	FixedPoints      int
	PseudoFixed      int
	Unreachable      uint64 // no incoming changing transition
	TwoCycles        int
	Acyclic          bool
	CycleStates      uint64 // configurations on some proper sequential cycle
	CanReachFixed    uint64 // configurations with EF(fixed point)
	CannotReachFixed uint64 // configurations from which no interleaving terminates
}

// TakeCensus computes the full sequential census. A full configuration
// space runs the word-parallel census over GOMAXPROCS workers; the result
// equals TakeCensusScalar's field for field.
func (s *Sequential) TakeCensus() SequentialCensus {
	if s.states != uint64(1)<<uint(s.n) {
		return s.TakeCensusScalar()
	}
	c, _ := s.wordCensus(resolveWorkers(0))
	return c
}

// TakeCensusScalar computes the census method by method, one scalar pass
// per field. It is the differential baseline of the word-parallel census.
func (s *Sequential) TakeCensusScalar() SequentialCensus {
	c := SequentialCensus{
		Nodes:       s.n,
		Configs:     s.Size(),
		FixedPoints: len(s.FixedPoints()),
		PseudoFixed: len(s.PseudoFixedPoints()),
		Unreachable: uint64(len(s.Unreachable())),
		TwoCycles:   len(s.TwoCycles()),
		CycleStates: uint64(len(s.ProperCycleStates())),
	}
	_, c.Acyclic = s.Acyclic()
	reach := s.CanReachFixedPoint()
	for _, ok := range reach {
		if ok {
			c.CanReachFixed++
		}
	}
	c.CannotReachFixed = c.Configs - c.CanReachFixed
	return c
}

// The word-parallel census reads the flip words F_i(b): lane l is set iff
// updating node i changes configuration 64b+l. A changing update is always
// the Hamming-1 flip x → x^e_i, so every field is a word expression over
// F_i and the neighbour view swap_i(W), whose lane l holds W's bit for
// configuration (64b+l)^e_i — a lane swap by 2^i inside the word for
// i < 6, the word of block b^(1<<(i-6)) for i ≥ 6:
//
//	fixed points      ¬∨F_i
//	pseudo-fixed      ∨F_i ∧ ¬∧F_i
//	unreachable       ¬∨swap_i(F_i)
//	2-cycles          Σ popcount(F_i ∧ swap_i(F_i)) / 2 (each pair {x, x^e_i} counted from both ends)
//	can reach a FP    least fixpoint of R ← R ∨ ∨_i(F_i ∧ swap_i(R)), seeded with the fixed points
//	cycle states      Tarjan over the trim residual: the greatest fixpoint of "has a changing
//	                  out-edge and in-edge inside the set"; it is empty iff the space is acyclic
//
// Beyond the flips the census holds two bitsets over the states (trim and
// reach) and a dirty bit per block; Tarjan's arrays cover the residual
// states only.

// swapLanes moves lane l of x to lane l^(1<<i), for i < 6.
func swapLanes(x uint64, i int) uint64 {
	sh, m := uint(1)<<uint(i), lanePatterns[i]
	return x>>sh&^m | x<<sh&m
}

// wordCensus is TakeCensus on a full configuration space with the given
// worker count; it also returns the number of fixpoint steps it took.
// Every field is a sum of popcounts, and neither fixpoint depends on sweep
// order, so the fields are the same integers for every worker count.
func (s *Sequential) wordCensus(workers int) (SequentialCensus, uint64) {
	if s.flips == nil {
		s = &Sequential{n: s.n, states: s.states, flips: s.denseFlips(workers)}
	}
	n := s.n
	blocks := (s.states + 63) >> 6
	valid := ^uint64(0) // lanes holding a configuration
	if s.states < 64 {
		valid = uint64(1)<<s.states - 1
	}
	alive, reach := newBitset(s.states), newBitset(s.states)
	var fixed, pseudo, unreach, twice atomic.Uint64
	shardRange(workers, blocks*64, func(lo, hi uint64) {
		var nf, np, nu, nt uint64
		for b := lo >> 6; b < hi>>6; b++ {
			some, every, in := uint64(0), ^uint64(0), uint64(0)
			for i := 0; i < n; i++ {
				f := s.flipWord(b, i)
				var g uint64 // F_i at x^e_i
				if i < 6 {
					g = swapLanes(f, i)
				} else {
					g = s.flipWord(b^1<<uint(i-6), i)
				}
				some, every, in = some|f, every&f, in|g
				nt += uint64(bits.OnesCount64(f & g))
			}
			fp := valid &^ some
			nf += uint64(bits.OnesCount64(fp))
			np += uint64(bits.OnesCount64(some &^ every))
			nu += uint64(bits.OnesCount64(valid &^ in))
			reach[b], alive[b] = fp, some&in
		}
		fixed.Add(nf)
		pseudo.Add(np)
		unreach.Add(nu)
		twice.Add(nt)
	})

	// Trim: drop states without a changing out-edge or in-edge into the
	// alive set until none is left to drop.
	steps := s.settle(workers, alive, func(v *sweepView, b, a uint64) uint64 {
		if a == 0 {
			return 0
		}
		var out, in uint64 // edges to and from the partner blocks
		for i := 6; i < n; i++ {
			p := b ^ 1<<uint(i-6)
			pa := v.at(p)
			out |= s.flipWord(b, i) & pa
			in |= s.flipWord(p, i) & pa
		}
		for {
			o, e := out, in
			for i := 0; i < n && i < 6; i++ {
				f := s.flipWord(b, i)
				o |= f & swapLanes(a, i)
				e |= swapLanes(f&a, i)
			}
			next := a & o & e
			if next == a {
				return a
			}
			a = next
		}
	})
	// Reach: add every state with a changing update into the reach set.
	steps += s.settle(workers, reach, func(v *sweepView, b, r uint64) uint64 {
		var acc uint64 // states with an edge into a partner block's reach set
		for i := 6; i < n; i++ {
			acc |= s.flipWord(b, i) & v.at(b^1<<uint(i-6))
		}
		for {
			next := r | acc
			for i := 0; i < n && i < 6; i++ {
				next |= s.flipWord(b, i) & swapLanes(r, i)
			}
			if next == r {
				return r
			}
			r = next
		}
	})

	c := SequentialCensus{
		Nodes:         n,
		Configs:       s.states,
		FixedPoints:   int(fixed.Load()),
		PseudoFixed:   int(pseudo.Load()),
		Unreachable:   unreach.Load(),
		TwoCycles:     int(twice.Load() / 2),
		CanReachFixed: reach.popcount(),
	}
	c.CannotReachFixed = c.Configs - c.CanReachFixed
	if c.Acyclic = alive.popcount() == 0; !c.Acyclic {
		c.CycleStates = s.residualCycleStates(alive)
	}
	return c, steps
}

// settle applies step to the blocks of words until no word changes. step
// returns block b's next word from its current one and its partner words
// b^(1<<k), read through the sweep view. A sweep splits the blocks into
// one chunk of consecutive blocks per worker and runs each chunk in block
// order on its own goroutine, which reads the live words of its chunk and,
// for partners in other chunks, the words as they stood when the sweep
// began. A changed block re-marks its partners still ahead in its chunk
// for this sweep and the others for the next one, so late sweeps touch
// only the frontier. Every sweep is thus a function of the words before it
// and of the chunk bounds alone: the number of sweeps and of steps is the
// same on every run at a given worker count. step must be monotone (only
// ever add, or only ever remove, lanes) and words must start on the near
// side of the target (a subset of a least fixpoint, a superset of a
// greatest one): then every worker count reaches it. settle returns the
// number of steps it took.
func (s *Sequential) settle(workers int, words bitset, step func(v *sweepView, b, w uint64) uint64) uint64 {
	blocks := uint64(len(words))
	prev := make(bitset, blocks)
	dirty, next := newBitset(blocks), newBitset(blocks)
	for j := range dirty {
		dirty[j] = ^uint64(0)
	}
	// Chunks own whole words of the dirty bitsets, so a chunk marks its
	// blocks for this sweep without atomics; marks for the next sweep may
	// land in another chunk's words.
	chunks := uint64(max(workers, 1))
	size := ((blocks+chunks-1)/chunks + 63) &^ 63
	var steps atomic.Uint64
	for {
		copy(prev, words)
		var spilled atomic.Bool // some block is marked in next
		sweep := func(lo, hi uint64) {
			v := sweepView{words: words, prev: prev, lo: lo, hi: hi}
			marked, stepped := false, uint64(0)
			for b := lo; b < hi; b++ {
				d := dirty[b>>6] >> (b & 63)
				if d == 0 {
					b |= 63 // no dirty block left in this dirty word
					continue
				}
				if d&1 == 0 {
					continue
				}
				stepped++
				w := words[b]
				nw := step(&v, b, w)
				if nw == w {
					continue
				}
				words[b] = nw
				for i := 6; i < s.n; i++ {
					if p := b ^ 1<<uint(i-6); p > b && p < hi {
						dirty.set(p)
					} else {
						next.setAtomic(p)
						marked = true
					}
				}
			}
			if marked {
				spilled.Store(true)
			}
			steps.Add(stepped)
		}
		if size >= blocks {
			sweep(0, blocks)
		} else {
			var wg sync.WaitGroup
			for lo := uint64(0); lo < blocks; lo += size {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sweep(lo, min(lo+size, blocks))
				}()
			}
			wg.Wait()
		}
		if !spilled.Load() {
			return steps.Load()
		}
		dirty, next = next, dirty
		clear(next)
	}
}

// sweepView is one chunk's view of the words during a settle sweep.
type sweepView struct {
	words, prev bitset
	lo, hi      uint64 // the chunk's blocks
}

// at returns block p's word: live inside the chunk, which only the
// chunk's goroutine writes, and from the start of the sweep outside it.
func (v *sweepView) at(p uint64) uint64 {
	if p-v.lo < v.hi-v.lo {
		return v.words[p]
	}
	return v.prev[p]
}

// residualCycleStates counts the states on proper cycles with Tarjan's
// algorithm restricted to the trim residual, which contains every cycle.
func (s *Sequential) residualCycleStates(alive bitset) uint64 {
	dir, m := newRankDir(alive)
	states := make([]uint32, 0, m)
	for b, w := range alive {
		for ; w != 0; w &= w - 1 {
			states = append(states, uint32(uint64(b)<<6|uint64(bits.TrailingZeros64(w))))
		}
	}
	var count uint64
	tarjanCycles(m, s.n, func(v uint64, i int) (uint64, bool) {
		x := uint64(states[v])
		y := x ^ 1<<uint(i)
		if s.flipWord(x>>6, i)>>(x&63)&1 == 0 || !alive.get(y) {
			return 0, false
		}
		return dir.rank(y), true
	}, func(uint32) { count++ })
	return count
}

// denseFlips derives the flip words of a dense table in one sharded pass;
// each chunk owns whole blocks.
func (s *Sequential) denseFlips(workers int) []uint32 {
	n, total := uint64(s.n), s.states
	flips := make([]uint32, (total+63)>>6*2*n)
	shardRange(workers, (total+63)&^63, func(lo, hi uint64) {
		hi = min(hi, total)
		for x := lo; x < hi; x++ {
			at := x>>6*2*n + x&63>>5
			for i := uint64(0); i < n; i++ {
				if uint64(s.succ[x*n+i]) != x {
					flips[at+2*i] |= 1 << (x & 31)
				}
			}
		}
	})
	return flips
}

// CanReachFixedPoint returns, per configuration, whether SOME sequence of
// single-node updates leads to a fixed point (the modal EF over the
// nondeterministic transition relation), computed by backward reachability
// from the fixed points.
func (s *Sequential) CanReachFixedPoint() []bool {
	seed := make([]bool, s.Size())
	for x := uint64(0); x < s.Size(); x++ {
		seed[x] = s.IsFixedPoint(x)
	}
	return s.backwardReachable(seed)
}

// CanCycleForever returns, per configuration, whether some infinite update
// sequence starting there changes state infinitely often — i.e. whether a
// proper sequential cycle is reachable (forward) from the configuration.
func (s *Sequential) CanCycleForever() []bool {
	onCycle := make([]bool, s.Size())
	for _, x := range s.ProperCycleStates() {
		onCycle[x] = true
	}
	return s.backwardReachable(onCycle)
}

// backwardReachable computes the configurations that can reach the seed
// set by some sequence of changing transitions, marking the seed itself.
// The seed slice is extended in place and returned.
//
// A single-node update moves Hamming distance ≤ 1, so on a full
// configuration space the predecessors of y all lie among {y ^ bit i}:
// the BFS enumerates those n candidates per visit and never materializes
// a reverse adjacency (the old per-state predecessor buckets cost ~8+
// bytes per edge — more than the dense table itself). Quotient views live
// on class ordinals where the Hamming-1 structure is folded away, so they
// keep the bucketed scan.
func (s *Sequential) backwardReachable(reach []bool) []bool {
	total := s.Size()
	var queue []uint32
	for x := uint64(0); x < total; x++ {
		if reach[x] {
			queue = append(queue, uint32(x))
		}
	}
	if total == uint64(1)<<uint(s.n) {
		for len(queue) > 0 {
			y := uint64(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			for i := 0; i < s.n; i++ {
				x := y ^ uint64(1)<<uint(i)
				if !reach[x] && s.Successor(x, i) == y {
					reach[x] = true
					queue = append(queue, uint32(x))
				}
			}
		}
		return reach
	}
	preds := make([][]uint32, total)
	for x := uint64(0); x < total; x++ {
		for i := 0; i < s.n; i++ {
			y := s.Successor(x, i)
			if y != x {
				preds[y] = append(preds[y], uint32(x))
			}
		}
	}
	for len(queue) > 0 {
		y := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, x := range preds[y] {
			if !reach[x] {
				reach[x] = true
				queue = append(queue, x)
			}
		}
	}
	return reach
}
