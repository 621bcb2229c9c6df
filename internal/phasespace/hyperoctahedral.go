package phasespace

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/automaton"
	"repro/internal/config"
	"repro/internal/runtime"
)

// This file extends the symmetry-quotient engine beyond the ring: the
// hypercube Q_d under its full automorphism group, the hyperoctahedral
// group B_d of order 2^d·d! (coordinate permutations composed with
// coordinate complements, acting on vertices — far beyond the dihedral
// group's 2n elements). A homogeneous threshold rule is symmetric in its
// inputs, so it commutes with every graph automorphism; the global map F
// therefore descends to the orbit classes of {0,1}^(2^d) under B_d's
// vertex action, and the dihedral engine's whole lifting story carries
// over verbatim:
//
//   - group elements act as *position permutations* of the 2^d cells, so
//     they preserve configuration weight and Hamming(x, g·x) is always
//     even — the fact the sequential lifting rests on (a single-node
//     update moves distance ≤ 1 and can never land on a nontrivial image);
//   - transients, gardens of Eden, fixed points, cycles, and the whole
//     sequential census lift by Burnside orbit weighting, with quotient
//     cycles lifted by walking F from a representative (liftCycle logic).
//
// Class enumeration is canonical-form hashing: x is a representative iff
// no group image is numerically smaller; the orbit size is |B_d| divided
// by the stabilizer order counted during the same scan. At the d ≤ 4 cap
// the group has 384 elements and 2^16 configurations fold to 402 classes
// — a ~163× state reduction, against the dihedral bound of 2n = 32.

// MaxHyperoctaDim caps the hypercube quotient: the canonical-form scan
// costs O(2^n·|B_d|) with n = 2^d, so d = 5 (n = 32, |B_5| = 3840) is
// ~10^13 word operations — out of reach; d ≤ 4 covers every hypercube the
// raw builders can cross-check anyway.
const MaxHyperoctaDim = 4

// hyperoctaSpec is the outcome of hypercube-quotient eligibility
// detection: the dimension, the with-memory flag, and the threshold.
type hyperoctaSpec struct {
	d, n, k int
	memory  bool
}

// detectHyperocta recognizes a as a homogeneous k-of-m threshold rule on
// the d-dimensional hypercube (with or without memory), the precondition
// of the hyperoctahedral quotient engine. Like quotientSpec, failure is an
// error: the quotient was explicitly requested.
func detectHyperocta(a *automaton.Automaton) (*hyperoctaSpec, error) {
	if !a.Homogeneous() {
		return nil, errors.New("phasespace: hypercube quotient requires a homogeneous rule")
	}
	sp := a.Space()
	n := sp.N()
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("phasespace: hypercube quotient requires 2^d nodes, got %d", n)
	}
	d := bits.Len(uint(n)) - 1
	if d > MaxHyperoctaDim {
		return nil, fmt.Errorf("%w: hypercube quotient supports d ≤ %d, got d=%d", ErrTooLarge, MaxHyperoctaDim, d)
	}
	// The node set of Q_d: every node's neighbor set must be exactly its d
	// bit-flips, optionally plus itself (with-memory), consistently.
	memory := sp.Degree(0) == d+1
	if !memory && sp.Degree(0) != d {
		return nil, fmt.Errorf("phasespace: node 0 has degree %d, want %d or %d for Q_%d", sp.Degree(0), d, d+1, d)
	}
	for i := 0; i < n; i++ {
		nb := sp.Neighborhood(i)
		want := d
		if memory {
			want++
		}
		if len(nb) != want {
			return nil, fmt.Errorf("phasespace: node %d has degree %d, want %d", i, len(nb), want)
		}
		var self bool
		var flips uint
		for _, j := range nb {
			if j == i {
				self = true
				continue
			}
			diff := uint(i ^ j)
			if diff&(diff-1) != 0 || diff >= uint(n) {
				return nil, fmt.Errorf("phasespace: edge (%d,%d) is not a hypercube edge", i, j)
			}
			flips |= diff
		}
		if self != memory || bits.OnesCount(flips) != d {
			return nil, fmt.Errorf("phasespace: node %d's neighborhood is not the Q_%d pattern", i, d)
		}
	}
	m := d
	if memory {
		m++
	}
	k, ok := thresholdOf(a.Rule(), m)
	if !ok {
		return nil, errors.New("phasespace: hypercube quotient requires a k-of-m threshold rule")
	}
	return &hyperoctaSpec{d: d, n: n, k: k, memory: memory}, nil
}

// Succ evaluates the global threshold map on a configuration word: cell j
// counts its d bit-flip neighbors (plus itself when with-memory) and
// compares against k.
func (s *hyperoctaSpec) Succ(x uint64) uint64 {
	var y uint64
	for j := 0; j < s.n; j++ {
		c := 0
		for b := 0; b < s.d; b++ {
			c += int(x >> uint(j^(1<<uint(b))) & 1)
		}
		if s.memory {
			c += int(x >> uint(j) & 1)
		}
		if c >= s.k {
			y |= 1 << uint(j)
		}
	}
	return y
}

// hyperoctaGroup is the hyperoctahedral group B_d realized as vertex
// permutations of Q_d: element (π, c) maps vertex v to π(v) XOR c, where π
// permutes coordinate bits. perms[g][v] is g's image of vertex v.
type hyperoctaGroup struct {
	d, n  int
	perms [][]uint8
}

func newHyperoctaGroup(d int) *hyperoctaGroup {
	n := 1 << uint(d)
	g := &hyperoctaGroup{d: d, n: n}
	// Enumerate the d! coordinate permutations by Heap's algorithm.
	coord := make([]int, d)
	for i := range coord {
		coord[i] = i
	}
	emit := func(pi []int) {
		for c := 0; c < n; c++ {
			vp := make([]uint8, n)
			for v := 0; v < n; v++ {
				w := 0
				for b := 0; b < d; b++ {
					w |= int(v>>uint(b)&1) << uint(pi[b])
				}
				vp[v] = uint8(w ^ c)
			}
			g.perms = append(g.perms, vp)
		}
	}
	var heap func(k int)
	heap = func(k int) {
		if k == 1 {
			emit(coord)
			return
		}
		for i := 0; i < k; i++ {
			heap(k - 1)
			if k%2 == 0 {
				coord[i], coord[k-1] = coord[k-1], coord[i]
			} else {
				coord[0], coord[k-1] = coord[k-1], coord[0]
			}
		}
	}
	heap(d)
	return g
}

// Order returns |B_d| = 2^d · d!.
func (g *hyperoctaGroup) Order() int { return len(g.perms) }

// apply returns the image of configuration x under the vertex permutation:
// bit vp[v] of the image is bit v of x.
func apply(vp []uint8, x uint64) uint64 {
	var y uint64
	for x != 0 {
		v := bits.TrailingZeros64(x)
		x &= x - 1
		y |= 1 << vp[v]
	}
	return y
}

// Canonical returns the minimum image of x over the group.
func (g *hyperoctaGroup) Canonical(x uint64) uint64 {
	min := x
	for _, vp := range g.perms {
		if y := apply(vp, x); y < min {
			min = y
		}
	}
	return min
}

// isCanonical reports whether x is its own orbit minimum, and if so the
// orbit size |B_d|/|stab(x)|, with early exit on the first smaller image.
func (g *hyperoctaGroup) isCanonical(x uint64) (orbit int, ok bool) {
	stab := 0
	for _, vp := range g.perms {
		y := apply(vp, x)
		if y < x {
			return 0, false
		}
		if y == x {
			stab++
		}
	}
	return len(g.perms) / stab, true
}

// reps enumerates the canonical representatives (ascending) and their
// full-space orbit sizes.
func (g *hyperoctaGroup) reps() (reps []uint64, orbit []uint16) {
	total := uint64(1) << uint(g.n)
	for x := uint64(0); x < total; x++ {
		if o, ok := g.isCanonical(x); ok {
			reps = append(reps, x)
			orbit = append(orbit, uint16(o))
		}
	}
	return reps, orbit
}

// HyperoctaParallel is the parallel phase space of a hypercube threshold
// automaton folded by the full hyperoctahedral symmetry: a functional
// graph over orbit-class ordinals with censuses lifted to exact full-space
// counts by orbit weighting — the Q_d analogue of QuotientParallel.
type HyperoctaParallel struct {
	spec  *hyperoctaSpec
	group *hyperoctaGroup
	reps  []uint64
	orbit []uint16
	graph *Parallel
}

// BuildHyperoctaParallelOpts builds the hyperoctahedral quotient parallel
// phase space; the automaton must be a homogeneous threshold rule on Q_d,
// d ≤ MaxHyperoctaDim. Successor-table memoization is shared with the
// other builders; the class scan itself re-runs (it is the cheap part at
// the feasible dimensions).
func BuildHyperoctaParallelOpts(ctx context.Context, a *automaton.Automaton, opts BuildOptions) (*HyperoctaParallel, error) {
	spec, err := detectHyperocta(a)
	if err != nil {
		return nil, err
	}
	group := newHyperoctaGroup(spec.d)
	reps, orbit := group.reps()
	total := uint64(len(reps))
	workers := resolveWorkers(opts.Workers)
	fp := buildFingerprint("phasespace/hyperocta-parallel", a)
	q := &HyperoctaParallel{spec: spec, group: group, reps: reps, orbit: orbit}
	if opts.Memoize {
		if tbl := buildMemo.get(fp); tbl != nil {
			q.graph = newDenseParallel(spec.n, tbl, workers)
			return q, nil
		}
	}
	succ := make([]uint32, total)
	fill := func(lo, hi uint64) {
		for r := lo; r < hi; r++ {
			y := spec.Succ(reps[r])
			succ[r] = config.QuotientRank(reps, group.Canonical(y))
		}
	}
	if opts.inlineEligible(workers, total) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fill(0, total)
	} else {
		if err := runBuildCampaign(ctx, opts, "phasespace/hyperocta-parallel", fp, total, succ, 1, fill); err != nil {
			return nil, err
		}
	}
	if opts.Memoize {
		buildMemo.put(fp, succ)
	}
	q.graph = newDenseParallel(spec.n, succ, workers)
	return q, nil
}

// BuildHyperoctaParallelCtx is BuildHyperoctaParallelOpts with only a
// context and a worker count.
func BuildHyperoctaParallelCtx(ctx context.Context, a *automaton.Automaton, workers int) (*HyperoctaParallel, error) {
	return BuildHyperoctaParallelOpts(ctx, a, BuildOptions{Options: runtime.Options{Workers: workers}})
}

// N returns the node count 2^d.
func (q *HyperoctaParallel) N() int { return q.spec.n }

// Size returns the number of full-space configurations, 2^(2^d).
func (q *HyperoctaParallel) Size() uint64 { return uint64(1) << uint(q.spec.n) }

// QuotientSize returns the number of orbit classes.
func (q *HyperoctaParallel) QuotientSize() uint64 { return uint64(len(q.reps)) }

// GroupOrder returns |B_d| = 2^d·d!.
func (q *HyperoctaParallel) GroupOrder() int { return q.group.Order() }

// Rep returns the canonical representative configuration of class r.
func (q *HyperoctaParallel) Rep(r uint32) uint64 { return q.reps[r] }

// Orbit returns the full-space orbit size of class r.
func (q *HyperoctaParallel) Orbit(r uint32) int { return int(q.orbit[r]) }

// liftCycle computes the full-space lift of one quotient cycle by walking
// F from a representative until it returns (see QuotientParallel.liftCycle
// — the argument is identical, only the kernel differs).
func (q *HyperoctaParallel) liftCycle(cyc []uint64) cycleLift {
	var weight uint64
	for _, r := range cyc {
		weight += uint64(q.orbit[r])
	}
	start := q.reps[cyc[0]]
	period := 0
	for y := start; ; {
		y = q.spec.Succ(y)
		period++
		if y == start {
			break
		}
		if uint64(period) > weight {
			panic(fmt.Sprintf("phasespace: hyperocta cycle lift from %#x did not close within %d steps", start, weight))
		}
	}
	return cycleLift{weight: weight, period: period, count: weight / uint64(period)}
}

// TakeCensus computes the full-space parallel census from the quotient:
// identical, field for field, to the raw space's TakeCensus.
func (q *HyperoctaParallel) TakeCensus() Census {
	g := q.graph
	g.classify()
	c := Census{Nodes: q.spec.n, Configs: q.Size()}
	deg := g.InDegrees()
	for r := range g.succ {
		w := uint64(q.orbit[r])
		if g.period[r] < 0 {
			c.Transients += w
			if int(g.dist[r]) > c.MaxTransientLen {
				c.MaxTransientLen = int(g.dist[r])
			}
		}
		if deg[r] == 0 {
			c.GardenOfEden += w
		}
	}
	for _, cyc := range g.cycles {
		lift := q.liftCycle(cyc)
		if lift.period == 1 {
			c.FixedPoints += int(lift.weight)
			continue
		}
		c.ProperCycles += int(lift.count)
		c.CycleStates += lift.weight
		if lift.period > c.MaxPeriod {
			c.MaxPeriod = lift.period
		}
		for _, r := range cyc {
			if deg[r] > 1 {
				c.CyclesWithIncomingTransients += int(lift.count)
				break
			}
		}
	}
	if c.MaxPeriod == 0 && c.FixedPoints > 0 {
		c.MaxPeriod = 1
	}
	return c
}

// HyperoctaSequential is the sequential (single-node-update) phase space
// of a hypercube threshold automaton folded by hyperoctahedral symmetry —
// the Q_d analogue of QuotientSequential. The even-Hamming argument makes
// self-loop, changing-transition, and acyclicity structure transfer
// exactly, so Sequential's classifiers run on the ordinal view and lift by
// orbit weighting.
type HyperoctaSequential struct {
	spec  *hyperoctaSpec
	group *hyperoctaGroup
	reps  []uint64
	orbit []uint16
	view  *Sequential
}

// BuildHyperoctaSequentialOpts builds the hyperoctahedral quotient
// sequential phase space; all n out-edges of a class are derived from one
// synchronous evaluation of its representative.
func BuildHyperoctaSequentialOpts(ctx context.Context, a *automaton.Automaton, opts BuildOptions) (*HyperoctaSequential, error) {
	spec, err := detectHyperocta(a)
	if err != nil {
		return nil, err
	}
	group := newHyperoctaGroup(spec.d)
	reps, orbit := group.reps()
	total := uint64(len(reps))
	n := spec.n
	workers := resolveWorkers(opts.Workers)
	fp := buildFingerprint("phasespace/hyperocta-sequential", a)
	q := &HyperoctaSequential{spec: spec, group: group, reps: reps, orbit: orbit}
	if opts.Memoize {
		if tbl := buildMemo.get(fp); tbl != nil {
			q.view = &Sequential{n: n, states: total, succ: tbl}
			return q, nil
		}
	}
	succ := make([]uint32, total*uint64(n))
	fill := func(lo, hi uint64) {
		for r := lo; r < hi; r++ {
			x := reps[r]
			f := spec.Succ(x)
			row := r * uint64(n)
			for i := 0; i < n; i++ {
				y := x&^(1<<uint(i)) | (f >> uint(i) & 1 << uint(i))
				if y == x {
					succ[row+uint64(i)] = uint32(r)
					continue
				}
				succ[row+uint64(i)] = config.QuotientRank(reps, group.Canonical(y))
			}
		}
	}
	if opts.inlineEligible(workers, total) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fill(0, total)
	} else {
		if err := runBuildCampaign(ctx, opts, "phasespace/hyperocta-sequential", fp, total, succ, uint64(n), fill); err != nil {
			return nil, err
		}
	}
	if opts.Memoize {
		buildMemo.put(fp, succ)
	}
	q.view = &Sequential{n: n, states: total, succ: succ}
	return q, nil
}

// BuildHyperoctaSequentialCtx is BuildHyperoctaSequentialOpts with only a
// context and a worker count.
func BuildHyperoctaSequentialCtx(ctx context.Context, a *automaton.Automaton, workers int) (*HyperoctaSequential, error) {
	return BuildHyperoctaSequentialOpts(ctx, a, BuildOptions{Options: runtime.Options{Workers: workers}})
}

// N returns the node count 2^d.
func (q *HyperoctaSequential) N() int { return q.spec.n }

// Size returns the number of full-space configurations.
func (q *HyperoctaSequential) Size() uint64 { return uint64(1) << uint(q.spec.n) }

// QuotientSize returns the number of orbit classes.
func (q *HyperoctaSequential) QuotientSize() uint64 { return uint64(len(q.reps)) }

// TakeCensus computes the full-space sequential census from the quotient:
// identical, field for field, to the raw space's TakeCensus (see
// QuotientSequential.TakeCensus for the lifting argument).
func (q *HyperoctaSequential) TakeCensus() SequentialCensus {
	v := q.view
	c := SequentialCensus{Nodes: q.spec.n, Configs: q.Size()}
	total := v.Size()
	for r := uint64(0); r < total; r++ {
		w := int(q.orbit[r])
		if v.IsFixedPoint(r) {
			c.FixedPoints += w
		} else if v.IsPseudoFixedPoint(r) {
			c.PseudoFixed += w
		}
	}
	for _, r := range v.Unreachable() {
		c.Unreachable += uint64(q.orbit[r])
	}
	for _, r := range v.ProperCycleStates() {
		c.CycleStates += uint64(q.orbit[r])
	}
	// A changing-transition cycle exists iff a non-trivial SCC does.
	c.Acyclic = c.CycleStates == 0
	reach := v.CanReachFixedPoint()
	for r, ok := range reach {
		if ok {
			c.CanReachFixed += uint64(q.orbit[r])
		}
	}
	c.CannotReachFixed = c.Configs - c.CanReachFixed
	c.TwoCycles = q.weightedTwoCycles()
	return c
}

// weightedTwoCycles counts full-space sequential two-cycles by orbit
// weighting over representatives, exactly as the dihedral engine does: the
// per-configuration endpoint count m(x) is constant on orbits because the
// group acts by position permutations.
func (q *HyperoctaSequential) weightedTwoCycles() int {
	var twice uint64
	for r, x := range q.reps {
		f := q.spec.Succ(x)
		d := f ^ x
		for d != 0 {
			i := bits.TrailingZeros64(d)
			d &= d - 1
			y := x ^ uint64(1)<<uint(i)
			if (q.spec.Succ(y)^x)>>uint(i)&1 == 0 {
				twice += uint64(q.orbit[r])
			}
		}
	}
	if twice%2 != 0 {
		panic("phasespace: orbit-weighted two-cycle endpoint count is odd")
	}
	return int(twice / 2)
}
