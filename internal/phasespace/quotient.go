package phasespace

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/automaton"
	"repro/internal/bitvec"
	"repro/internal/config"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// This file implements the symmetry-quotient phase-space engine. Every
// homogeneous threshold rule on a reflection-closed circulant space
// commutes with the dihedral group of the ring (the repo's EQ-ROT/EQ-REFL
// metamorphic claims, exhaustively verified), so the global map F descends
// to the ~2^n/(2n) bracelet classes of {0,1}^n: the quotient builders
// enumerate one canonical representative per class (config.SpaceQuotient),
// evaluate F with the single-word kernel (sim.Word), canonicalize
// (bitvec.CanonicalDihedral), and store a functional graph over class
// ordinals. Classification runs on the quotient and is lifted back to
// exact full-space counts by weighting each representative with its
// dihedral orbit size — Burnside bookkeeping, no approximation.
//
// The lifting facts the censuses rely on (all consequences of
// F(g·x) = g·F(x) for every dihedral g, plus the parity fact that
// Hamming(x, g·x) is always even):
//
//   - x is eventually periodic at distance d ⟺ its class is, at the same
//     d: transient counts and lengths lift by plain orbit weighting.
//   - x has a predecessor ⟺ its class has: garden-of-Eden states lift by
//     orbit weighting of in-degree-0 classes.
//   - A quotient cycle through class [x] corresponds to S/P full-space
//     cycles of equal length P, where S is the total orbit weight of the
//     classes on the quotient cycle and P is the *full-space* period of
//     any member (found by walking F from a representative; P = 1 exactly
//     when the class members are fixed points). All S/P lifted cycles are
//     dihedral images of each other, so they share basin size and have
//     incoming transients all-or-none.
//   - A single-node update never lands on a nontrivial dihedral image of
//     its argument (it moves Hamming distance ≤ 1, while g·x sits at even
//     distance), so sequential self-loops, changing transitions, and
//     acyclicity all transfer exactly between the full space and the
//     quotient.

// MaxQuotientSequentialNodes bounds quotient sequential enumeration (dense
// n × R successor table over class ordinals; at the cap R ≈ 2^28/56, so
// the table is ≈ 520 MiB — past the raw sequential cap of 24 by four
// nodes). The flip-bitset compression does not apply here: single-node
// updates are Hamming-1 in configuration space, not in ordinal space.
const MaxQuotientSequentialNodes = 28

func errQuotientCap(n, cap int) error {
	return fmt.Errorf("%w: quotient space on %d nodes exceeds the cap of %d", ErrTooLarge, n, cap)
}

// quotientSpec recognizes a as eligible for the symmetry-quotient engine:
// a circulant threshold automaton (detectCirculant) whose offset set is
// closed under negation mod n, which makes the rule commute with ring
// reflection as well as rotation. Unlike the silent batch-kernel fallback,
// ineligibility here is an error: a quotient build was explicitly
// requested and cannot be satisfied by other means.
func quotientSpec(a *automaton.Automaton) (*batchSpec, error) {
	s := detectCirculant(a, 2, 63)
	if s == nil {
		return nil, errors.New("phasespace: quotient build requires a homogeneous k-of-m threshold rule (m ≤ 15) on a circulant space with 2 ≤ n ≤ 63")
	}
	present := make(map[int]bool, len(s.offsets))
	for _, d := range s.offsets {
		present[d] = true
	}
	for _, d := range s.offsets {
		if !present[(s.n-d)%s.n] {
			return nil, fmt.Errorf("phasespace: quotient build requires reflection-symmetric offsets; %d present without %d (mod %d)", d, (s.n-d)%s.n, s.n)
		}
	}
	return s, nil
}

// quotientReps enumerates the bracelet classes of {0,1}^n: the sorted
// canonical representatives and their orbit sizes. Enumeration is a CAT
// recursion (no 2^n table), cheap next to the build that follows, so memo
// hits re-derive it rather than caching the extra arrays.
func quotientReps(n int) (reps []uint64, orbit []uint8) {
	config.SpaceQuotient(n, func(rep uint64, o int) {
		reps = append(reps, rep)
		orbit = append(orbit, uint8(o))
	})
	return reps, orbit
}

// QuotientParallel is the parallel phase space of an automaton folded by
// its dihedral symmetry: a functional graph over bracelet-class ordinals,
// with censuses lifted to exact full-space counts by orbit weighting.
type QuotientParallel struct {
	n     int
	reps  []uint64 // sorted canonical representative per class
	orbit []uint8  // full-space orbit size per class (≤ 2n)
	graph *Parallel
	kern  *sim.Word
}

// BuildQuotientParallelOpts builds the quotient parallel phase space under
// the fault-tolerant campaign runtime, with the same cancellation, retry,
// checkpoint/resume, and memoization semantics as BuildParallelOpts —
// shards of the campaign grid are ranges of class ordinals. The automaton
// must satisfy quotientSpec and n ≤ config.MaxQuotientNodes.
func BuildQuotientParallelOpts(ctx context.Context, a *automaton.Automaton, opts BuildOptions) (*QuotientParallel, error) {
	spec, err := quotientSpec(a)
	if err != nil {
		return nil, err
	}
	n := spec.n
	if n > config.MaxQuotientNodes {
		return nil, errQuotientCap(n, config.MaxQuotientNodes)
	}
	kern, err := sim.NewWord(n, spec.k, spec.offsets)
	if err != nil {
		return nil, err
	}
	workers := resolveWorkers(opts.Workers)
	reps, orbit := quotientReps(n)
	total := uint64(len(reps))
	fp := buildFingerprint("phasespace/quotient-parallel", a)
	q := &QuotientParallel{n: n, reps: reps, orbit: orbit, kern: kern}
	if opts.Memoize {
		if tbl := buildMemo.get(fp); tbl != nil {
			q.graph = newQuotientGraph(n, tbl, workers, opts)
			return q, nil
		}
	}
	succ := make([]uint32, total)
	fill := func(lo, hi uint64) {
		for r := lo; r < hi; r++ {
			y := kern.Succ(reps[r])
			succ[r] = config.QuotientRank(reps, bitvec.CanonicalDihedral(y, n))
		}
	}
	if opts.inlineEligible(workers, total) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fill(0, total)
	} else {
		err := runBuildCampaign(ctx, opts, "phasespace/quotient-parallel", fp, total, succ, 1, fill)
		if err != nil {
			return nil, err
		}
	}
	if opts.Memoize {
		buildMemo.put(fp, succ)
	}
	q.graph = newQuotientGraph(n, succ, workers, opts)
	return q, nil
}

// newQuotientGraph wraps the quotient successor table in a Parallel view.
// The table itself is always retained (it is what makes a quotient a
// quotient), but when the dense classifier's working arrays would outgrow
// the memory budget the view classifies with the streaming phases instead
// (BasinWeights materializes the per-class basin labels lazily).
func newQuotientGraph(n int, succ []uint32, workers int, opts BuildOptions) *Parallel {
	g := newDenseParallel(n, succ, workers)
	if opts.parallelStrategy(uint64(len(succ))) == StrategyStream {
		g.streamMode = true
	}
	return g
}

// BuildQuotientParallelCtx is BuildQuotientParallelOpts with only a
// context and a worker count.
func BuildQuotientParallelCtx(ctx context.Context, a *automaton.Automaton, workers int) (*QuotientParallel, error) {
	return BuildQuotientParallelOpts(ctx, a, BuildOptions{Options: runtime.Options{Workers: workers}})
}

// N returns the node count.
func (q *QuotientParallel) N() int { return q.n }

// Size returns the number of full-space configurations, 2^n.
func (q *QuotientParallel) Size() uint64 { return uint64(1) << uint(q.n) }

// QuotientSize returns the number of bracelet classes — the state count of
// the quotient graph.
func (q *QuotientParallel) QuotientSize() uint64 { return uint64(len(q.reps)) }

// Rep returns the canonical representative configuration of class r.
func (q *QuotientParallel) Rep(r uint32) uint64 { return q.reps[r] }

// Orbit returns the full-space orbit size of class r.
func (q *QuotientParallel) Orbit(r uint32) int { return int(q.orbit[r]) }

// Successor returns the class ordinal of F applied to class r.
func (q *QuotientParallel) Successor(r uint32) uint32 { return q.graph.succ[r] }

// Cycles returns the quotient graph's cycles as slices of class ordinals
// (each a rotation starting at its least ordinal, sorted by that ordinal).
func (q *QuotientParallel) Cycles() [][]uint64 { return q.graph.Cycles() }

// ClassifyCtx classifies the quotient graph under a cancellable context;
// see Parallel.ClassifyCtx.
func (q *QuotientParallel) ClassifyCtx(ctx context.Context) error { return q.graph.ClassifyCtx(ctx) }

// cycleLift describes the full-space cycles a quotient cycle lifts to:
// count cycles of length period, covering weight = count·period states.
type cycleLift struct {
	weight uint64 // total orbit weight of the classes on the quotient cycle
	period int    // full-space period of every lifted state
	count  uint64 // number of full-space cycles (weight / period)
}

// liftCycle computes the full-space lift of one quotient cycle by walking
// F from a representative until it returns: the walk stays inside the
// classes on the quotient cycle, so it terminates within weight steps.
func (q *QuotientParallel) liftCycle(cyc []uint64) cycleLift {
	var weight uint64
	for _, r := range cyc {
		weight += uint64(q.orbit[r])
	}
	start := q.reps[cyc[0]]
	period := 0
	for y := start; ; {
		y = q.kern.Succ(y)
		period++
		if y == start {
			break
		}
		if uint64(period) > weight {
			panic(fmt.Sprintf("phasespace: quotient cycle lift from %#x did not close within %d steps", start, weight))
		}
	}
	return cycleLift{weight: weight, period: period, count: weight / uint64(period)}
}

// TakeCensus computes the full-space parallel census from the quotient:
// identical, field for field, to the raw space's TakeCensus, at ~2n× less
// state.
func (q *QuotientParallel) TakeCensus() Census {
	g := q.graph
	g.classify()
	c := Census{Nodes: q.n, Configs: q.Size()}
	if st := g.stream; st != nil {
		// Streaming classification: transients/GoE come from the bitsets,
		// the longest transient from the sweep depth (distance is constant
		// on dihedral orbits, so the class-graph maximum is the full-space
		// maximum), and incoming-transient flags per cycle id.
		for r := range g.succ {
			w := uint64(q.orbit[r])
			if !st.onCycle.get(uint64(r)) {
				c.Transients += w
			}
			if !st.hasPred.get(uint64(r)) {
				c.GardenOfEden += w
			}
		}
		c.MaxTransientLen = st.census.MaxTransientLen
		for id, cyc := range g.cycles {
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
			if st.incoming[id] != 0 {
				c.CyclesWithIncomingTransients += int(lift.count)
			}
		}
		if c.MaxPeriod == 0 && c.FixedPoints > 0 {
			c.MaxPeriod = 1
		}
		return c
	}
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
		// Functional graph: each on-cycle class has exactly one on-cycle
		// predecessor, so in-degree > 1 means a transient feeds it — and
		// then, by symmetry, every one of the lifted cycles is fed.
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

// BasinWeights returns, per quotient cycle (indexed as in Cycles()), the
// total number of full-space configurations whose orbit ends in that
// cycle's lift — the sum, over the lift's equal-sized full-space basins,
// of their sizes. Dividing by the lift's cycle count gives the per-cycle
// full-space basin size.
func (q *QuotientParallel) BasinWeights() []uint64 {
	g := q.graph
	g.classify()
	if g.stream != nil {
		st := g.streamBasins()
		weights := make([]uint64, len(g.cycles))
		for r := range g.succ {
			weights[st.label[r]] += uint64(q.orbit[r])
		}
		return weights
	}
	cycleID := make([]int32, len(g.succ))
	for i := range cycleID {
		cycleID[i] = -1
	}
	for id, cyc := range g.cycles {
		for _, r := range cyc {
			cycleID[r] = int32(id)
		}
	}
	weights := make([]uint64, len(g.cycles))
	var stack []uint32
	for r := range g.succ {
		v := uint32(r)
		stack = stack[:0]
		for cycleID[v] == -1 {
			stack = append(stack, v)
			v = g.succ[v]
		}
		id := cycleID[v]
		for _, u := range stack {
			cycleID[u] = id
		}
		weights[id] += uint64(q.orbit[r])
	}
	return weights
}

// QuotientSequential is the sequential (single-node-update) phase space
// folded by dihedral symmetry: the nondeterministic transition relation
// over bracelet-class ordinals, reusing Sequential's classifiers on a
// quotient-sized view and lifting the census by orbit weighting.
type QuotientSequential struct {
	n     int
	reps  []uint64
	orbit []uint8
	view  *Sequential // ordinal view: states = class count, succ = quotient table
	kern  *sim.Word
}

// BuildQuotientSequentialOpts builds the quotient sequential phase space
// under the campaign runtime; all n out-edges of a class are derived from
// one synchronous kernel evaluation of its representative. The automaton
// must satisfy quotientSpec and n ≤ MaxQuotientSequentialNodes.
func BuildQuotientSequentialOpts(ctx context.Context, a *automaton.Automaton, opts BuildOptions) (*QuotientSequential, error) {
	spec, err := quotientSpec(a)
	if err != nil {
		return nil, err
	}
	n := spec.n
	if n > MaxQuotientSequentialNodes {
		return nil, errQuotientCap(n, MaxQuotientSequentialNodes)
	}
	kern, err := sim.NewWord(n, spec.k, spec.offsets)
	if err != nil {
		return nil, err
	}
	workers := resolveWorkers(opts.Workers)
	reps, orbit := quotientReps(n)
	total := uint64(len(reps))
	fp := buildFingerprint("phasespace/quotient-sequential", a)
	q := &QuotientSequential{n: n, reps: reps, orbit: orbit, kern: kern}
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
			f := kern.Succ(x)
			row := r * uint64(n)
			for i := 0; i < n; i++ {
				y := kern.UpdateNode(x, f, i)
				if y == x {
					succ[row+uint64(i)] = uint32(r)
					continue
				}
				succ[row+uint64(i)] = config.QuotientRank(reps, bitvec.CanonicalDihedral(y, n))
			}
		}
	}
	if opts.inlineEligible(workers, total) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fill(0, total)
	} else {
		err := runBuildCampaign(ctx, opts, "phasespace/quotient-sequential", fp, total, succ, uint64(n), fill)
		if err != nil {
			return nil, err
		}
	}
	if opts.Memoize {
		buildMemo.put(fp, succ)
	}
	q.view = &Sequential{n: n, states: total, succ: succ}
	return q, nil
}

// BuildQuotientSequentialCtx is BuildQuotientSequentialOpts with only a
// context and a worker count.
func BuildQuotientSequentialCtx(ctx context.Context, a *automaton.Automaton, workers int) (*QuotientSequential, error) {
	return BuildQuotientSequentialOpts(ctx, a, BuildOptions{Options: runtime.Options{Workers: workers}})
}

// N returns the node count.
func (q *QuotientSequential) N() int { return q.n }

// Size returns the number of full-space configurations, 2^n.
func (q *QuotientSequential) Size() uint64 { return uint64(1) << uint(q.n) }

// QuotientSize returns the number of bracelet classes.
func (q *QuotientSequential) QuotientSize() uint64 { return uint64(len(q.reps)) }

// TakeCensus computes the full-space sequential census from the quotient:
// identical, field for field, to the raw space's TakeCensus. Self-loop and
// changing-transition structure transfers exactly (the even-Hamming
// argument above), so fixed/pseudo-fixed/unreachable/cycle classifications
// run on the ordinal view and lift by orbit weighting; only the two-cycle
// count needs full-space bit positions, recovered per representative with
// the kernel.
func (q *QuotientSequential) TakeCensus() SequentialCensus {
	v := q.view
	c := SequentialCensus{Nodes: q.n, Configs: q.Size()}
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

// weightedTwoCycles counts full-space sequential two-cycles from the
// quotient. A two-cycle is an unordered pair {x, x^bit i} whose node-i
// updates flip bit i both ways; the number of such pairs is half the
// full-space sum of m(x) = #{i : bit i of F(x) differs from x and bit i of
// F(x^bit i) equals x's}, and m is constant on dihedral orbits, so the sum
// orbit-weights over representatives.
func (q *QuotientSequential) weightedTwoCycles() int {
	var twice uint64
	for r, x := range q.reps {
		f := q.kern.Succ(x)
		d := f ^ x
		for d != 0 {
			i := bits.TrailingZeros64(d)
			d &= d - 1
			y := x ^ uint64(1)<<uint(i)
			if (q.kern.Succ(y)^x)>>uint(i)&1 == 0 {
				twice += uint64(q.orbit[r])
			}
		}
	}
	if twice%2 != 0 {
		panic("phasespace: orbit-weighted two-cycle endpoint count is odd")
	}
	return int(twice / 2)
}
