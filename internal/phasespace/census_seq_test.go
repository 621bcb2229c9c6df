package phasespace

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/automaton"
	"repro/internal/rule"
	"repro/internal/runtime"
	"repro/internal/space"
)

// seqCensusRules are the ring rules of the word-vs-scalar differential:
// threshold rules (acyclic by Theorem 1, both radii), XOR and the ECAs
// whose sequential spaces are cyclic, so the Tarjan fallback runs.
func seqCensusRules(n int) map[string]*automaton.Automaton {
	cases := map[string]*automaton.Automaton{}
	for _, r := range []int{1, 2} {
		if n > 1 && n <= 2*r {
			continue
		}
		for k := 1; k <= 2*r+1; k++ {
			cases[fmt.Sprintf("threshold:%d-r%d", k, r)] = automaton.MustNew(space.Ring(n, r), rule.Threshold{K: k})
		}
	}
	if n == 1 || n >= 3 {
		cases["xor"] = automaton.MustNew(space.Ring(n, 1), rule.XOR{})
		for _, code := range []uint8{30, 54, 90, 110, 150} {
			cases[fmt.Sprintf("eca:%d", code)] = automaton.MustNew(space.Ring(n, 1), rule.Elementary(code))
		}
	}
	return cases
}

// checkWordCensus compares the word-parallel census of s at several worker
// counts with the scalar census, field for field.
func checkWordCensus(t *testing.T, name string, s *Sequential, want SequentialCensus) {
	t.Helper()
	for _, workers := range []int{1, 2, 7} {
		if got, _ := s.wordCensus(workers); got != want {
			t.Errorf("%s workers=%d:\nword   %+v\nscalar %+v", name, workers, got, want)
		}
	}
}

// TestSeqCensusWordVsScalar pins the word-parallel sequential census to the
// method-by-method scalar one on both storage modes, n = 1…16 (n < 6 is a
// single partial block; n ≥ 12 fans out over workers, and the fixpoint
// sweeps split into chunks from n = 13).
func TestSeqCensusWordVsScalar(t *testing.T) {
	maxN := 16
	if testing.Short() {
		maxN = 13
	}
	ctx := context.Background()
	for n := 1; n <= maxN; n++ {
		for name, a := range seqCensusRules(n) {
			name = fmt.Sprintf("%s/n=%d", name, n)
			dense, err := BuildSequentialOpts(ctx, a, BuildOptions{Strategy: StrategyDense})
			if err != nil {
				t.Fatal(err)
			}
			flip, err := BuildSequentialOpts(ctx, a, BuildOptions{
				Options:  runtime.Options{Workers: 2},
				Strategy: StrategyStream,
			})
			if err != nil {
				t.Fatal(err)
			}
			if dense.succ == nil || flip.flips == nil {
				t.Fatalf("%s: storage modes not forced", name)
			}
			want := dense.TakeCensusScalar()
			checkWordCensus(t, name+"/dense", dense, want)
			checkWordCensus(t, name+"/flip", flip, want)
			if got := flip.TakeCensus(); got != want {
				t.Errorf("%s: TakeCensus %+v, scalar %+v", name, got, want)
			}
		}
	}
}

// TestSeqCensusStepsRepeat pins the cost of the fixpoint sweeps: at a
// given worker count every run takes the same number of steps, however
// the workers' goroutines interleave.
func TestSeqCensusStepsRepeat(t *testing.T) {
	ctx := context.Background()
	for name, a := range map[string]*automaton.Automaton{
		"threshold:4-r2": automaton.MustNew(space.Ring(16, 2), rule.Threshold{K: 4}),
		"eca:110":        automaton.MustNew(space.Ring(16, 1), rule.Elementary(110)),
	} {
		s, err := BuildSequentialOpts(ctx, a, BuildOptions{Strategy: StrategyStream})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			_, want := s.wordCensus(workers)
			for rep := 0; rep < 5; rep++ {
				if _, got := s.wordCensus(workers); got != want {
					t.Fatalf("%s workers=%d: run %d took %d steps, run 0 took %d", name, workers, rep+1, got, want)
				}
			}
		}
	}
}

// TestSeqCensusBridgeState covers a trim residual that is not all cyclic:
// two 2-cycles joined by a state (100) that has a changing in-edge and
// out-edge inside the residual but lies on no cycle, so only Tarjan can
// drop it. The trimmed dead end 011 sits just below the bridge in rank
// order, so an edge into it must not be mistaken for an edge into 100.
//
//	111 ⇄ 110 → 100 → 000 ⇄ 001 → 011
func TestSeqCensusBridgeState(t *testing.T) {
	edges := [][2]uint64{{0b111, 0b110}, {0b110, 0b111}, {0b110, 0b100}, {0b100, 0b000}, {0b000, 0b001}, {0b001, 0b000}, {0b001, 0b011}}
	const n = 3
	flip := &Sequential{n: n, states: 1 << n, flips: make([]uint32, 2*n)}
	dense := &Sequential{n: n, states: 1 << n, succ: make([]uint32, n<<n)}
	for x := uint64(0); x < 1<<n; x++ {
		for i := 0; i < n; i++ {
			dense.succ[x*n+uint64(i)] = uint32(x)
		}
	}
	for _, e := range edges {
		i := 0
		for e[0]^e[1] != 1<<uint(i) {
			i++
		}
		flip.flips[2*i] |= 1 << e[0]
		dense.succ[e[0]*n+uint64(i)] = uint32(e[1])
	}
	want := dense.TakeCensusScalar()
	if want.Acyclic || want.CycleStates != 4 {
		t.Fatalf("scalar census %+v, want 4 cycle states", want)
	}
	checkWordCensus(t, "bridge/dense", dense, want)
	checkWordCensus(t, "bridge/flip", flip, want)
}
