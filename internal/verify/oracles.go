package verify

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/config"
	"repro/internal/phasespace"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// This file holds the differential oracles: PR 1 introduced three
// independent evaluation paths for the same global map — the scalar
// automaton.Stepper, the packed cell-parallel sim.Ring, and the
// configuration-parallel sim.Batch feeding the sharded phasespace
// builders — and the oracles pin all of them to one another so any
// divergence surfaces as a shrunk counterexample instead of a silently
// wrong phase space.

// ringOffsets returns the with-memory ring neighborhood offsets −r..r.
func ringOffsets(r int) []int {
	out := make([]int, 0, 2*r+1)
	for d := -r; d <= r; d++ {
		out = append(out, d)
	}
	return out
}

// RingVsScalar compares trajectories of the packed sim.Ring against the
// scalar stepper from sampled starts, for depth synchronous steps each.
func RingVsScalar(rng *rand.Rand, cs Case, rounds, depth int) *Counterexample {
	if cs.N <= 2*cs.R || cs.N < 3 {
		return cs.counterexample("invalid ring case for sim.Ring oracle")
	}
	a := cs.Automaton()
	st := a.NewStepper()
	for round := 0; round < rounds; round++ {
		x := SampleConfigIndex(rng, cs.N)
		ring := sim.NewRing(cs.N, cs.R, cs.K, config.FromIndex(x, cs.N))
		ref := x
		for t := 0; t < depth; t++ {
			ring.Step()
			ref = stepIndex(st, cs.N, ref)
			if got := ring.Config().Index(); got != ref {
				cex := cs.counterexample(fmt.Sprintf(
					"sim.Ring diverges from scalar stepper at step %d: packed %s, scalar %s",
					t+1, config.FromIndex(got, cs.N), config.FromIndex(ref, cs.N)))
				cex.Config = config.FromIndex(x, cs.N).String()
				return cex
			}
		}
	}
	return nil
}

// BatchVsScalar compares sim.Batch's 64-configuration successor batches
// against per-configuration scalar steps at sampled 64-aligned bases.
func BatchVsScalar(rng *rand.Rand, cs Case, rounds int) *Counterexample {
	if cs.N < 6 || cs.N > 63 {
		return cs.counterexample("invalid case for batch oracle (need 6 ≤ n ≤ 63)")
	}
	bk, err := sim.NewBatch(cs.N, cs.K, ringOffsets(cs.R))
	if err != nil {
		return cs.counterexample(fmt.Sprintf("NewBatch: %v", err))
	}
	a := cs.Automaton()
	st := a.NewStepper()
	total := uint64(1) << uint(cs.N)
	var out [64]uint64
	for round := 0; round < rounds; round++ {
		base := rng.Uint64() % total &^ 63
		bk.Succ64(base, &out)
		for l := uint64(0); l < sim.BatchLanes; l++ {
			x := base + l
			if want := stepIndex(st, cs.N, x); out[l] != want {
				cex := cs.counterexample(fmt.Sprintf(
					"sim.Batch lane %d at base %d: batch %s, scalar %s",
					l, base, config.FromIndex(out[l], cs.N), config.FromIndex(want, cs.N)))
				cex.Config = config.FromIndex(x, cs.N).String()
				return cex
			}
		}
	}
	return nil
}

// ParallelBuildersAgree builds the full parallel phase space of the case
// with the sharded/batched builder and with the scalar reference builder
// and requires byte-identical successor tables plus identical
// classification output (census and canonical cycle lists).
func ParallelBuildersAgree(cs Case, workers int) *Counterexample {
	a := cs.Automaton()
	fast := phasespace.BuildParallelWorkers(a, workers)
	ref := phasespace.BuildParallelScalar(a)
	for x := uint64(0); x < ref.Size(); x++ {
		if fast.Successor(x) != ref.Successor(x) {
			cex := cs.counterexample(fmt.Sprintf(
				"BuildParallelWorkers(%d) successor %s, scalar %s",
				workers,
				config.FromIndex(fast.Successor(x), cs.N),
				config.FromIndex(ref.Successor(x), cs.N)))
			cex.Config = config.FromIndex(x, cs.N).String()
			return cex
		}
	}
	fc, rc := fast.TakeCensus(), ref.TakeCensus()
	if fc != rc {
		return cs.counterexample(fmt.Sprintf(
			"census mismatch: workers=%d %+v, scalar %+v", workers, fc, rc))
	}
	fcy, rcy := fast.Cycles(), ref.Cycles()
	if len(fcy) != len(rcy) {
		return cs.counterexample(fmt.Sprintf(
			"cycle count mismatch: workers=%d found %d, scalar %d", workers, len(fcy), len(rcy)))
	}
	for i := range fcy {
		if len(fcy[i]) != len(rcy[i]) {
			return cs.counterexample(fmt.Sprintf("cycle %d length mismatch", i))
		}
		for j := range fcy[i] {
			if fcy[i][j] != rcy[i][j] {
				return cs.counterexample(fmt.Sprintf(
					"cycle %d differs at position %d: workers=%d %d, scalar %d",
					i, j, workers, fcy[i][j], rcy[i][j]))
			}
		}
	}
	return nil
}

// SequentialBuildersAgree is the sequential analogue: the sharded/batched
// single-node-update table must be byte-identical to the scalar one, and
// both must agree on acyclicity.
func SequentialBuildersAgree(cs Case, workers int) *Counterexample {
	a := cs.Automaton()
	fast := phasespace.BuildSequentialWorkers(a, workers)
	ref := phasespace.BuildSequentialScalar(a)
	for x := uint64(0); x < ref.Size(); x++ {
		for i := 0; i < cs.N; i++ {
			if fast.Successor(x, i) != ref.Successor(x, i) {
				cex := cs.counterexample(fmt.Sprintf(
					"BuildSequentialWorkers(%d) node-%d successor %s, scalar %s",
					workers, i,
					config.FromIndex(fast.Successor(x, i), cs.N),
					config.FromIndex(ref.Successor(x, i), cs.N)))
				cex.Config = config.FromIndex(x, cs.N).String()
				cex.Order = []int{i}
				return cex
			}
		}
	}
	_, fok := fast.Acyclic()
	_, rok := ref.Acyclic()
	if fok != rok {
		return cs.counterexample(fmt.Sprintf(
			"acyclicity verdict mismatch: workers=%d %v, scalar %v", workers, fok, rok))
	}
	return nil
}

// StreamDenseAgree pins the table-free (streaming) classifiers to the
// dense ones on one case: parallel census, cycle list, basin sizes and
// Garden-of-Eden set must all be byte-identical to their dense twins, and
// the flip-bitset sequential census to the dense table's scalar census.
func StreamDenseAgree(cs Case, workers int) *Counterexample {
	a := cs.Automaton()
	ctx := context.Background()
	streamOpts := phasespace.BuildOptions{
		Options:  runtime.Options{Workers: workers},
		Strategy: phasespace.StrategyStream,
	}
	sp, err := phasespace.BuildParallelOpts(ctx, a, streamOpts)
	if err != nil {
		return cs.counterexample(fmt.Sprintf("streaming parallel build: %v", err))
	}
	dp := phasespace.BuildParallelWorkers(a, workers)
	if sc, dc := sp.TakeCensus(), dp.TakeCensus(); sc != dc {
		return cs.counterexample(fmt.Sprintf(
			"streaming census %+v, dense %+v (workers=%d)", sc, dc, workers))
	}
	scy, dcy := sp.Cycles(), dp.Cycles()
	if len(scy) != len(dcy) {
		return cs.counterexample(fmt.Sprintf(
			"streaming found %d cycles, dense %d", len(scy), len(dcy)))
	}
	for i := range scy {
		if len(scy[i]) != len(dcy[i]) || scy[i][0] != dcy[i][0] {
			return cs.counterexample(fmt.Sprintf("cycle %d differs between streaming and dense", i))
		}
	}
	sb, db := sp.BasinSizes(), dp.BasinSizes()
	for i := range sb {
		if sb[i] != db[i] {
			return cs.counterexample(fmt.Sprintf(
				"basin %d: streaming %d states, dense %d", i, sb[i], db[i]))
		}
	}
	sg, dg := sp.GardenOfEden(), dp.GardenOfEden()
	if len(sg) != len(dg) {
		return cs.counterexample(fmt.Sprintf(
			"streaming %d Garden-of-Eden states, dense %d", len(sg), len(dg)))
	}
	ss, err := phasespace.BuildSequentialOpts(ctx, a, streamOpts)
	if err != nil {
		return cs.counterexample(fmt.Sprintf("flip-bitset sequential build: %v", err))
	}
	ds := phasespace.BuildSequentialWorkers(a, workers)
	if sc, dc := ss.TakeCensus(), ds.TakeCensusScalar(); sc != dc {
		return cs.counterexample(fmt.Sprintf(
			"flip-bitset sequential census %+v, dense scalar %+v (workers=%d)", sc, dc, workers))
	}
	return nil
}
