package main

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/automaton"
	"repro/internal/phasespace"
	"repro/internal/rule"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/transfer"
)

// censusKind is the engine one census entry exercises.
type censusKind int

const (
	rawParallel censusKind = iota
	rawSequential
	quotientParallel
)

// censusEntry is one census a user would ask ca-phase for.
type censusEntry struct {
	label string
	kind  censusKind
	a     *automaton.Automaton
	rl    rule.Rule
	r     int  // ring radius; 0 for a non-ring space
	ring  bool // transfer-matrix oracle applies
	k     int  // threshold, for the ring batch kernel (0: not a threshold)
}

// thresholdRing is the k-of-(2r+1) threshold rule on the n-ring.
func thresholdRing(n, r, k int, kind censusKind, label string) censusEntry {
	rl := rule.Threshold{K: k}
	return censusEntry{label: fmt.Sprintf("%s/ring n=%d r=%d k=%d", label, n, r, k), kind: kind,
		a: automaton.MustNew(space.Ring(n, r), rl), rl: rl, r: r, ring: true, k: k}
}

// censusEntries derives one pass's inputs from the seed. The threshold
// rings are fixed (k-of-(2r+1), r ∈ {1, 2}, majority for r=1 and 4-of-5
// for r=2): even complement duals such as 2-of-5 and 4-of-5, whose phase
// spaces are isomorphic, differ up to 2× in build time, so a seed-picked
// rule would move the throughput more than any code change the benchmark
// should see. The seed picks the elementary rule and the regular graph.
func censusEntries(env *phaseEnv) ([]censusEntry, error) {
	rng := env.rng("census")
	var es []censusEntry
	maj := func(n int, kind censusKind, label string) censusEntry { return thresholdRing(n, 1, 2, kind, label) }
	four := func(n int, kind censusKind, label string) censusEntry { return thresholdRing(n, 2, 4, kind, label) }
	switch env.workload {
	case "census-mid":
		// Dense side of the StrategyAuto crossover (32 B/state ≤ 512 MiB
		// for parallel n ≤ 24, 4n B/state for sequential n ≤ 22).
		n24 := four(24, rawParallel, "par")
		es = append(es, four(20, rawParallel, "par"), maj(22, rawParallel, "par"), n24)
		code := ecaCodes[rng.Intn(len(ecaCodes))]
		eca := rule.Elementary(code)
		es = append(es, censusEntry{label: fmt.Sprintf("par/eca:%d n=22", code), kind: rawParallel,
			a: automaton.MustNew(space.Ring(22, 1), eca), rl: eca, r: 1, ring: true})
		d := 3 + rng.Intn(2)
		gseed := rng.Int63()
		g, err := space.RandomRegular(20, d, gseed)
		if err != nil {
			return nil, fmt.Errorf("random regular graph: %w", err)
		}
		gk := (d+1)/2 + 1
		es = append(es, censusEntry{label: fmt.Sprintf("par/regular d=%d seed=%d n=20 k=%d", d, gseed, gk),
			kind: rawParallel, a: automaton.MustNew(g, rule.Threshold{K: gk}), rl: rule.Threshold{K: gk}})
		es = append(es, four(20, rawSequential, "seq"))
		q24 := n24
		q24.kind, q24.label = quotientParallel, "quot"+n24.label[3:]
		es = append(es, q24, four(26, quotientParallel, "quot"))
	case "census-large":
		// Just past the budget, where the raw builds run the table-free
		// streaming classifier; the n=28 quotient (4.8M classes) is the
		// largest whose fill stays within a couple of seconds.
		es = append(es, four(25, rawParallel, "par"), maj(26, rawParallel, "par"),
			four(23, rawSequential, "seq"), maj(28, quotientParallel, "quot"))
	default:
		return nil, fmt.Errorf("no census inputs for workload %q", env.workload)
	}
	return es, nil
}

// ecaCodes are the elementary rules the census may pick: complex and
// chaotic rules (long transients and cycles, which stress the classifier
// in ways threshold rules do not) whose n=22 census costs within ~20% of
// each other, so the pick changes the answer but not the work.
var ecaCodes = []uint8{18, 22, 54, 57, 62, 73, 94, 110, 122, 126, 146}

// censusOutcome is one entry's census, kept for the oracle step.
type censusOutcome struct {
	e   censusEntry
	par phasespace.Census
	seq phasespace.SequentialCensus
	// twoCycleStates counts configurations on period-2 cycles.
	twoCycleStates uint64
}

// runCensus is the census phase: every entry built, classified and
// censused through the default BuildOptions, timed call by call, then
// checked against the oracles.
func runCensus(env *phaseEnv) (*phaseResult, error) {
	res := newResult("census")
	entries, err := censusEntries(env)
	if err != nil {
		return nil, err
	}
	res.SetupS = env.setupDone()
	if env.setupOnly {
		return res, nil
	}
	ctx := context.Background()
	opts := phasespace.BuildOptions{}
	tr := env.tr
	pass := tr.begin("census.pass", -1, 0)
	var parConfigs, seqConfigs, quotConfigs uint64
	var parT, seqT, quotT time.Duration
	var outs []censusOutcome
	timings := map[string]float64{}
	for _, e := range entries {
		runtime.GC()
		sp := tr.begin("census.entry", pass, 0)
		t0 := time.Now()
		out := censusOutcome{e: e}
		var p *phasespace.Parallel
		var err error
		switch e.kind {
		case rawParallel:
			out.par, p, err = rawParallelCensus(ctx, e, opts, tr, sp, timings, "phasespace.")
		case rawSequential:
			out.seq, err = sequentialCensus(ctx, e, opts, tr, sp, timings)
		case quotientParallel:
			out.par, err = quotientCensus(ctx, e, opts, tr, sp, timings)
		}
		dt := time.Since(t0)
		tr.end(sp)
		if err != nil {
			res.fail("%s: %v", e.label, err)
			continue
		}
		if p != nil {
			out.twoCycleStates = twoCycleStates(out.par, p)
		}
		size := uint64(1) << uint(e.a.N())
		switch e.kind {
		case rawParallel:
			parConfigs += size
			parT += dt
		case rawSequential:
			seqConfigs += size
			seqT += dt
		case quotientParallel:
			quotConfigs += size
			quotT += dt
		}
		res.Record[e.label+" s"] = dt.Seconds()
		outs = append(outs, out)
	}
	tr.end(pass)
	if parT > 0 {
		res.Metrics["par_configs_per_s"] = float64(parConfigs) / parT.Seconds()
	}
	if seqT > 0 {
		res.Metrics["seq_configs_per_s"] = float64(seqConfigs) / seqT.Seconds()
	}
	if quotT > 0 {
		res.Metrics["quotient_configs_per_s"] = float64(quotConfigs) / quotT.Seconds()
	}
	res.Layers["phasespace.states"] = float64(parConfigs + seqConfigs + quotConfigs)
	for k, v := range timings {
		res.Layers[k] = v
	}
	if c := timings["phasespace.quotient_configs"]; c > 0 {
		res.Layers["phasespace.quotient_ratio"] = timings["phasespace.quotient_classes"] / c
	}
	delete(res.Layers, "phasespace.quotient_classes")
	delete(res.Layers, "phasespace.quotient_configs")
	censusOracles(env, res, outs)
	if tr.on {
		censusDiagnostics(ctx, env, res, entries)
	}
	return res, nil
}

// rawParallelCensus is one raw parallel census, timed call by call.
func rawParallelCensus(ctx context.Context, e censusEntry, opts phasespace.BuildOptions,
	tr *tracer, parent int32, timings map[string]float64, prefix string) (phasespace.Census, *phasespace.Parallel, error) {
	t0 := time.Now()
	sp := tr.begin(prefix+"fill", parent, 0)
	p, err := phasespace.BuildParallelOpts(ctx, e.a, opts)
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return phasespace.Census{}, nil, err
	}
	var stopHeap func() float64
	if tr.on {
		stopHeap = sampleHeap()
	}
	sp = tr.begin(prefix+"classify", parent, 0)
	err = p.ClassifyCtx(ctx)
	tr.end(sp)
	t2 := time.Now()
	if stopHeap != nil {
		if mb := stopHeap(); mb > timings[prefix+"classify_peak_heap_mb"] {
			timings[prefix+"classify_peak_heap_mb"] = mb
		}
	}
	if err != nil {
		return phasespace.Census{}, nil, err
	}
	sp = tr.begin(prefix+"census", parent, 0)
	c := p.TakeCensus()
	tr.end(sp)
	t3 := time.Now()
	timings[prefix+"fill_s"] += t1.Sub(t0).Seconds()
	timings[prefix+"classify_s"] += t2.Sub(t1).Seconds()
	timings[prefix+"census_s"] += t3.Sub(t2).Seconds()
	return c, p, nil
}

// twoCycleStates counts the configurations on period-2 cycles: all cycle
// states when no cycle is longer, else a walk over the cycles.
func twoCycleStates(c phasespace.Census, p *phasespace.Parallel) uint64 {
	if c.MaxPeriod <= 2 {
		return c.CycleStates
	}
	var two uint64
	for _, cyc := range p.Cycles() {
		if len(cyc) == 2 {
			two += 2
		}
	}
	return two
}

func sequentialCensus(ctx context.Context, e censusEntry, opts phasespace.BuildOptions,
	tr *tracer, parent int32, timings map[string]float64) (phasespace.SequentialCensus, error) {
	t0 := time.Now()
	sp := tr.begin("phasespace.seq_fill", parent, 0)
	s, err := phasespace.BuildSequentialOpts(ctx, e.a, opts)
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return phasespace.SequentialCensus{}, err
	}
	sp = tr.begin("phasespace.seq_census", parent, 0)
	c := s.TakeCensus()
	tr.end(sp)
	timings["phasespace.seq_fill_s"] += t1.Sub(t0).Seconds()
	timings["phasespace.seq_census_s"] += time.Since(t1).Seconds()
	return c, nil
}

func quotientCensus(ctx context.Context, e censusEntry, opts phasespace.BuildOptions,
	tr *tracer, parent int32, timings map[string]float64) (phasespace.Census, error) {
	t0 := time.Now()
	sp := tr.begin("phasespace.quotient_fill", parent, 0)
	q, err := phasespace.BuildQuotientParallelOpts(ctx, e.a, opts)
	tr.end(sp)
	t1 := time.Now()
	if err != nil {
		return phasespace.Census{}, err
	}
	sp = tr.begin("phasespace.quotient_classify", parent, 0)
	err = q.ClassifyCtx(ctx)
	tr.end(sp)
	t2 := time.Now()
	if err != nil {
		return phasespace.Census{}, err
	}
	sp = tr.begin("phasespace.quotient_census", parent, 0)
	c := q.TakeCensus()
	tr.end(sp)
	timings["phasespace.quotient_fill_s"] += t1.Sub(t0).Seconds()
	timings["phasespace.quotient_classify_s"] += t2.Sub(t1).Seconds()
	timings["phasespace.quotient_census_s"] += time.Since(t2).Seconds()
	timings["phasespace.quotient_classes"] += float64(q.QuotientSize())
	timings["phasespace.quotient_configs"] += float64(q.Size())
	return c, nil
}

// censusOracles checks every census against an independent answer: the
// transfer-matrix census on rings, Theorem 1 (acyclicity) for sequential
// threshold spaces, Goles–Olivos (period ≤ 2) for symmetric threshold
// graphs, and raw = quotient where both were computed.
func censusOracles(env *phaseEnv, res *phaseResult, outs []censusOutcome) {
	engines := map[string]*transfer.Engine{}
	var transferS float64
	for _, o := range outs {
		e := o.e
		if e.kind == rawSequential {
			res.check(o.seq.Acyclic && o.seq.Configs == uint64(1)<<uint(e.a.N()),
				"%s: sequential threshold space has a cycle (Theorem 1)", e.label)
			continue
		}
		if !e.ring {
			res.check(o.par.MaxPeriod <= 2 && o.par.Configs == uint64(1)<<uint(e.a.N()),
				"%s: max period %d > 2 on a symmetric threshold graph", e.label, o.par.MaxPeriod)
			continue
		}
		key := fmt.Sprintf("%s|%d", e.rl.Name(), e.r)
		eng := engines[key]
		sp := env.tr.begin("transfer.census", -1, 0)
		t0 := time.Now()
		var err error
		if eng == nil {
			if eng, err = transfer.New(e.rl, e.r); err == nil {
				engines[key] = eng
			}
		}
		var tc *transfer.Census
		if err == nil {
			tc, err = eng.TakeCensus(uint64(e.a.N()))
		}
		transferS += time.Since(t0).Seconds()
		env.tr.end(sp)
		if err != nil {
			res.fail("%s: transfer oracle: %v", e.label, err)
			continue
		}
		two := o.twoCycleStates
		if e.kind == quotientParallel {
			two = o.par.CycleStates // threshold rules: every proper cycle has period 2
		}
		ok := eqU(tc.FixedPoints, uint64(o.par.FixedPoints)) && eqU(tc.TwoCycleStates, two) &&
			eqU(tc.GardenOfEden, o.par.GardenOfEden)
		res.check(ok, "%s: census (fp=%d 2cyc=%d goe=%d) != transfer (fp=%s 2cyc=%s goe=%s)",
			e.label, o.par.FixedPoints, two, o.par.GardenOfEden, tc.FixedPoints, tc.TwoCycleStates, tc.GardenOfEden)
	}
	res.Layers["transfer.census_s"] = transferS
	// The raw and quotient censuses of the same automaton must agree.
	for _, q := range outs {
		if q.e.kind != quotientParallel {
			continue
		}
		for _, r := range outs {
			if r.e.kind == rawParallel && r.e.a == q.e.a {
				res.check(r.par == q.par, "%s: raw census %+v != quotient census %+v", q.e.label, r.par, q.par)
			}
		}
	}
}

func eqU(b *big.Int, v uint64) bool { return b.IsUint64() && b.Uint64() == v }

// sampleHeap samples the live heap through runtime/metrics (which does
// not stop the world) every millisecond until the returned stop function
// is called; stop returns the high-water mark in MiB.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return float64(peak) / (1 << 20)
	}
}

// censusDiagnostics runs the traced run's extra per-layer measurements,
// after the timed pass: the kernels alone on one goroutine over each raw
// parallel entry's space (the ring kernel where the rule is a threshold on
// a ring, the CSR graph kernel on every entry), and the largest raw
// parallel entry rebuilt with one worker.
func censusDiagnostics(ctx context.Context, env *phaseEnv, res *phaseResult, entries []censusEntry) {
	var batchN, graphN uint64
	var batchT, graphT time.Duration
	var largest *censusEntry
	for i, e := range entries {
		if e.kind != rawParallel {
			continue
		}
		if largest == nil || e.a.N() > largest.a.N() {
			largest = &entries[i]
		}
		size := uint64(1) << uint(e.a.N())
		if e.k > 0 {
			offs := make([]int, 0, 2*e.r+1)
			for d := -e.r; d <= e.r; d++ {
				offs = append(offs, d)
			}
			b, err := sim.NewBatch(e.a.N(), e.k, offs)
			if err != nil {
				res.fail("%s: sim.NewBatch: %v", e.label, err)
				continue
			}
			sp := env.tr.begin("sim.batch", -1, 0)
			t0 := time.Now()
			sweep(size, b.Succ64)
			batchT += time.Since(t0)
			env.tr.end(sp)
			batchN += size
		}
		g, err := graphBatchOf(e)
		if err != nil {
			res.fail("%s: sim.NewGraphBatch: %v", e.label, err)
			continue
		}
		sp := env.tr.begin("sim.graph", -1, 0)
		t0 := time.Now()
		sweep(size, g.Succ64)
		graphT += time.Since(t0)
		env.tr.end(sp)
		graphN += size
	}
	if batchT > 0 {
		res.Layers["sim.batch.configs_per_s"] = float64(batchN) / batchT.Seconds()
	}
	if graphT > 0 {
		res.Layers["sim.graph.configs_per_s"] = float64(graphN) / graphT.Seconds()
	}
	if largest != nil {
		runtime.GC()
		one := phasespace.BuildOptions{}
		one.Workers = 1
		w1 := map[string]float64{}
		sp := env.tr.begin("census.entry_w1", -1, 0)
		if _, _, err := rawParallelCensus(ctx, *largest, one, env.tr, sp, w1, "w1."); err != nil {
			res.fail("%s (workers=1): %v", largest.label, err)
		}
		env.tr.end(sp)
		res.Layers["phasespace.classify_w1_s"] = w1["w1.classify_s"]
	}
}

var sweepSink uint64

// sweep runs a 64-lane successor kernel over [0, size).
func sweep(size uint64, succ64 func(uint64, *[64]uint64)) {
	var out [64]uint64
	var acc uint64
	for base := uint64(0); base < size; base += 64 {
		succ64(base, &out)
		acc ^= out[0] ^ out[63]
	}
	sweepSink = acc
}

// graphBatchOf builds the CSR batch kernel for an entry the ring kernel
// cannot serve (a truth-table rule, or a non-ring space).
func graphBatchOf(e censusEntry) (*sim.GraphBatch, error) {
	sp := e.a.Space()
	n := sp.N()
	nbhd := make([][]int, n)
	rules := make([]sim.GraphRule, n)
	for i := 0; i < n; i++ {
		nb := sp.Neighborhood(i)
		nbhd[i] = nb
		if t, ok := e.rl.(rule.Threshold); ok {
			rules[i] = sim.GraphRule{K: t.K}
			continue
		}
		outs := rule.Materialize(e.rl, len(nb)).Outputs()
		packed := make([]uint64, (len(outs)+63)/64)
		for idx, o := range outs {
			if o&1 == 1 {
				packed[idx>>6] |= 1 << uint(idx&63)
			}
		}
		rules[i] = sim.GraphRule{Table: packed}
	}
	return sim.NewGraphBatch(nbhd, rules)
}
