// Command ca-phase enumerates and classifies the complete phase space
// (configuration space) of a small cellular automaton, in both the parallel
// and the sequential update discipline, and can export Graphviz DOT —
// regenerating the paper's Figure 1 mechanically:
//
//	ca-phase -n 2 -space complete -rule xor -dot parallel   > fig1a.dot
//	ca-phase -n 2 -space complete -rule xor -dot sequential > fig1b.dot
//	ca-phase -n 10 -rule majority
//
// Large enumerations run under the fault-tolerant campaign runtime:
// SIGINT/SIGTERM cancel the build, flush a final checkpoint (when
// -checkpoint is set), and exit 130; -resume continues an interrupted
// enumeration with successor arrays byte-identical to an uninterrupted
// run. The parallel build checkpoints to the -checkpoint path itself and
// the sequential build to that path + ".seq"; -faults injects a
// deterministic fault plan into the build shards (debug):
//
//	ca-phase -n 24 -rule majority -checkpoint phase.ckpt.gz
//	ca-phase -n 24 -rule majority -checkpoint phase.ckpt.gz -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"strings"

	"repro/internal/automaton"
	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/phasespace"
	"repro/internal/render"
	"repro/internal/rule"
	"repro/internal/runtime"
	"repro/internal/space"
)

func main() {
	var (
		n          = flag.Int("n", 8, "number of cells")
		r          = flag.Int("r", 1, "neighborhood radius")
		ruleSpec   = flag.String("rule", "majority", "rule: majority | threshold:K | xor | eca:CODE")
		spSpec     = flag.String("space", "ring", "space: ring | line | complete | hypercube:D | torus:WxH | graph:regular:D:SEED | graph:powerlaw:M:SEED")
		dot        = flag.String("dot", "", "emit DOT instead of analysis: parallel | sequential")
		verbose    = flag.Bool("v", false, "list cycles and pseudo-fixed points")
		noMemory   = flag.Bool("memoryless", false, "exclude each node from its own neighborhood (memoryless CA)")
		workers    = flag.Int("workers", 0, "phase-space builder worker count (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "build checkpoint path (.gz compresses; sequential build appends .seq)")
		resume     = flag.Bool("resume", false, "resume an interrupted build from its checkpoint")
		faults     = flag.String("faults", "", "deterministic fault plan to inject into build shards, e.g. panic:3 (debug)")
		memoize    = flag.Bool("memoize", false, "reuse in-process memoized successor tables across builds")
		quotient   = flag.Bool("quotient", false, "enumerate dihedral symmetry classes (necklace representatives) instead of raw configurations; census tables are lifted to identical full-space counts by orbit weighting")
		analytic   = flag.Bool("analytic", false, "transfer-matrix analytic census: exact fixed-point / 2-cycle / Garden-of-Eden counts in O(log n), no enumeration; ring spaces only, ST quantities only — n is unbounded")
		strategy   = flag.String("strategy", "auto", "phase-space storage: auto | dense | stream (auto streams when the dense tables would exceed -mem-budget-mb)")
		memBudget  = flag.Int("mem-budget-mb", 0, "dense-vs-streaming crossover for -strategy auto, in MiB (0 = 512)")
	)
	prof := cli.NewProfile()
	flag.Parse()
	cli.Exit2("ca-phase", cli.First(
		cli.Positive("-n", *n),
		cli.NonNegative("-r", *r),
		cli.NonNegative("-workers", *workers),
		cli.NonNegative("-mem-budget-mb", *memBudget),
		cli.Writable("-checkpoint", *checkpoint),
	))
	strat, err := parseStrategy(*strategy)
	cli.Exit2("ca-phase", err)
	stopProf := prof.MustStart("ca-phase")
	// Second SIGINT/SIGTERM force-exits but still flushes the profiles.
	ctx, stop := cli.ForcedSignalContext(context.Background(), stopProf)
	defer stop()
	if *analytic {
		err = runAnalytic(*n, *r, *ruleSpec, *spSpec, *dot, *noMemory, *quotient)
	} else {
		err = run(ctx, *n, *r, *ruleSpec, *spSpec, *dot, *verbose, *noMemory, *workers, *checkpoint, *resume, *faults, *memoize, *quotient, strat, *memBudget)
	}
	stopProf() // explicit: the os.Exit paths below skip defers
	switch {
	case cli.Interrupted(err):
		fmt.Fprintln(os.Stderr, "ca-phase: interrupted; checkpoint flushed")
		os.Exit(cli.InterruptExitCode)
	case err != nil:
		fmt.Fprintln(os.Stderr, "ca-phase:", err)
		os.Exit(1)
	}
}

// parseStrategy maps the -strategy flag to a phasespace.Strategy.
func parseStrategy(s string) (phasespace.Strategy, error) {
	switch s {
	case "auto":
		return phasespace.StrategyAuto, nil
	case "dense":
		return phasespace.StrategyDense, nil
	case "stream":
		return phasespace.StrategyStream, nil
	}
	return phasespace.StrategyAuto, fmt.Errorf("-strategy must be auto, dense or stream, got %q", s)
}

func run(ctx context.Context, n, r int, ruleSpec, spSpec, dot string, verbose, noMemory bool, workers int, checkpoint string, resume bool, faults string, memoize, quotient bool, strat phasespace.Strategy, memBudgetMB int) error {
	sp, err := parseSpace(spSpec, n, r)
	if err != nil {
		return err
	}
	if noMemory {
		sp = space.Memoryless(sp)
	}
	rl, err := parseRule(ruleSpec, r)
	if err != nil {
		return err
	}
	a, err := automaton.New(sp, rl)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s on %s", rl.Name(), sp.Name())

	plan, err := faultinject.Parse(faults)
	if err != nil {
		return err
	}
	opts := phasespace.BuildOptions{
		Options:      runtime.Options{Workers: workers},
		Checkpoint:   checkpoint,
		Resume:       resume,
		Memoize:      memoize,
		Strategy:     strat,
		MemoryBudget: int64(memBudgetMB) << 20,
	}
	if plan != nil {
		opts.Hooks = plan
	}
	seqOpts := opts
	if checkpoint != "" {
		seqOpts.Checkpoint = checkpoint + ".seq"
	}

	if quotient {
		if dot != "" {
			return fmt.Errorf("-dot export draws raw configurations and is not supported with -quotient")
		}
		return runQuotient(ctx, a, name, opts, seqOpts, verbose)
	}

	switch dot {
	case "parallel":
		p, err := phasespace.BuildParallelOpts(ctx, a, opts)
		if err != nil {
			return err
		}
		return p.WriteDOT(os.Stdout, name)
	case "sequential":
		s, err := phasespace.BuildSequentialOpts(ctx, a, seqOpts)
		if err != nil {
			return err
		}
		return s.WriteDOT(os.Stdout, name, false)
	case "":
	default:
		return fmt.Errorf("unknown -dot mode %q", dot)
	}

	p, err := phasespace.BuildParallelOpts(ctx, a, opts)
	if err != nil {
		return err
	}
	if err := p.ClassifyCtx(ctx); err != nil {
		return err
	}
	c := p.TakeCensus()
	fmt.Printf("# %s\n\n== parallel phase space ==\n", name)
	tab := render.NewTable("quantity", "value")
	tab.AddRow("configurations", c.Configs)
	tab.AddRow("fixed points", c.FixedPoints)
	tab.AddRow("proper cycles", c.ProperCycles)
	tab.AddRow("cycle states", c.CycleStates)
	tab.AddRow("max period", c.MaxPeriod)
	tab.AddRow("transients", c.Transients)
	tab.AddRow("max transient length", c.MaxTransientLen)
	tab.AddRow("garden-of-eden states", c.GardenOfEden)
	tab.AddRow("cycles with incoming transients", c.CyclesWithIncomingTransients)
	if err := tab.Write(os.Stdout); err != nil {
		return err
	}
	if verbose {
		for _, cyc := range p.ProperCycles() {
			parts := make([]string, len(cyc))
			for i, x := range cyc {
				parts[i] = config.FromIndex(x, sp.N()).String()
			}
			fmt.Printf("cycle: %s\n", strings.Join(parts, " -> "))
		}
	}

	if sp.N() <= phasespace.MaxSequentialNodes {
		s, err := phasespace.BuildSequentialOpts(ctx, a, seqOpts)
		if err != nil {
			return err
		}
		fmt.Printf("\n== sequential phase space ==\n")
		sc := s.TakeCensus()
		stab := render.NewTable("quantity", "value")
		stab.AddRow("acyclic (no update sequence can cycle)", sc.Acyclic)
		stab.AddRow("fixed points", sc.FixedPoints)
		stab.AddRow("pseudo-fixed points", sc.PseudoFixed)
		stab.AddRow("unreachable states", sc.Unreachable)
		stab.AddRow("temporal 2-cycles", sc.TwoCycles)
		if err := stab.Write(os.Stdout); err != nil {
			return err
		}
		if verbose && !sc.Acyclic {
			witness, _ := s.Acyclic()
			parts := make([]string, len(witness))
			for i, x := range witness {
				parts[i] = config.FromIndex(x, sp.N()).String()
			}
			fmt.Printf("witness cycle: %s\n", strings.Join(parts, " -> "))
		}
	}
	return nil
}

// runQuotient is the -quotient analysis path: phase spaces built on
// dihedral symmetry classes, with censuses lifted to full-space counts by
// orbit weighting. The tables are row-for-row identical to the raw path's
// (that is the point — and a cheap differential check), with -v adding the
// class counts that show how much smaller the enumeration was.
func runQuotient(ctx context.Context, a *automaton.Automaton, name string, opts, seqOpts phasespace.BuildOptions, verbose bool) error {
	q, err := phasespace.BuildQuotientParallelOpts(ctx, a, opts)
	if err != nil {
		return err
	}
	if err := q.ClassifyCtx(ctx); err != nil {
		return err
	}
	c := q.TakeCensus()
	fmt.Printf("# %s\n\n== parallel phase space ==\n", name)
	tab := render.NewTable("quantity", "value")
	tab.AddRow("configurations", c.Configs)
	tab.AddRow("fixed points", c.FixedPoints)
	tab.AddRow("proper cycles", c.ProperCycles)
	tab.AddRow("cycle states", c.CycleStates)
	tab.AddRow("max period", c.MaxPeriod)
	tab.AddRow("transients", c.Transients)
	tab.AddRow("max transient length", c.MaxTransientLen)
	tab.AddRow("garden-of-eden states", c.GardenOfEden)
	tab.AddRow("cycles with incoming transients", c.CyclesWithIncomingTransients)
	if err := tab.Write(os.Stdout); err != nil {
		return err
	}
	if verbose {
		fmt.Printf("symmetry classes: %d (of %d configurations)\n", q.QuotientSize(), c.Configs)
	}

	if a.N() <= phasespace.MaxQuotientSequentialNodes {
		qs, err := phasespace.BuildQuotientSequentialOpts(ctx, a, seqOpts)
		if err != nil {
			return err
		}
		sc := qs.TakeCensus()
		fmt.Printf("\n== sequential phase space ==\n")
		stab := render.NewTable("quantity", "value")
		stab.AddRow("acyclic (no update sequence can cycle)", sc.Acyclic)
		stab.AddRow("fixed points", sc.FixedPoints)
		stab.AddRow("pseudo-fixed points", sc.PseudoFixed)
		stab.AddRow("unreachable states", sc.Unreachable)
		stab.AddRow("temporal 2-cycles", sc.TwoCycles)
		if err := stab.Write(os.Stdout); err != nil {
			return err
		}
		if verbose {
			fmt.Printf("symmetry classes: %d (of %d configurations)\n", qs.QuotientSize(), sc.Configs)
		}
	}
	return nil
}

// runAnalytic is the -analytic path: ST quantities (fixed points,
// temporal 2-cycles, Garden-of-Eden counts) from the transfer-matrix
// engine, with no phase-space — or even space — construction, so n is
// bounded only by the O(log n) jump. Counts too wide for a table cell are
// abbreviated to their leading digits plus the exact digit count.
func runAnalytic(n, r int, ruleSpec, spSpec, dot string, noMemory, quotient bool) error {
	switch {
	case dot != "":
		return fmt.Errorf("-dot draws the enumerated phase space and is not supported with -analytic")
	case quotient:
		return fmt.Errorf("-quotient enumerates symmetry classes; -analytic does not enumerate at all (pick one)")
	case noMemory:
		return fmt.Errorf("-memoryless windows are not contiguous-with-center; -analytic needs the full [i-r..i+r] window")
	case spSpec != "ring":
		return fmt.Errorf("-analytic supports ring spaces only, got %q", spSpec)
	}
	rl, err := parseRule(ruleSpec, r)
	if err != nil {
		return err
	}
	c, err := phasespace.AnalyticCensusAt(rl, r, uint64(n))
	if err != nil {
		return err
	}
	fmt.Printf("# %s on ring(n=%d, r=%d)\n\n== analytic census (transfer matrix) ==\n", rl.Name(), n, r)
	tab := render.NewTable("quantity", "value")
	tab.AddRow("configurations", abbrevBig(c.Configs))
	tab.AddRow("fixed points", abbrevBig(c.FixedPoints))
	tab.AddRow("temporal 2-cycles", abbrevBig(c.TwoCycles))
	tab.AddRow("2-cycle states", abbrevBig(c.TwoCycleStates))
	tab.AddRow("garden-of-eden states", abbrevBig(c.GardenOfEden))
	tab.AddRow("states with preimage", abbrevBig(c.WithPreimage))
	tab.AddRow("recurrence orders (fp/pair/goe)",
		fmt.Sprintf("%d/%d/%d", c.Orders[0], c.Orders[1], c.Orders[2]))
	return tab.Write(os.Stdout)
}

// abbrevBig renders x in full up to 32 digits, else leading digits plus
// the exact decimal length (the count itself stays exact in memory; only
// the display truncates).
func abbrevBig(x *big.Int) string {
	s := x.String()
	if len(s) <= 32 {
		return s
	}
	return fmt.Sprintf("%s… (%d digits)", s[:12], len(s))
}

func parseSpace(spec string, n, r int) (space.Space, error) {
	switch {
	case spec == "ring":
		return space.Ring(n, r), nil
	case spec == "line":
		return space.Line(n, r), nil
	case spec == "complete":
		return space.CompleteGraph(n), nil
	case strings.HasPrefix(spec, "hypercube:"):
		d, err := strconv.Atoi(strings.TrimPrefix(spec, "hypercube:"))
		if err != nil {
			return nil, fmt.Errorf("bad hypercube spec %q", spec)
		}
		return space.Hypercube(d), nil
	case strings.HasPrefix(spec, "torus:"):
		var w, h int
		if _, err := fmt.Sscanf(strings.TrimPrefix(spec, "torus:"), "%dx%d", &w, &h); err != nil {
			return nil, fmt.Errorf("bad torus spec %q", spec)
		}
		return space.Torus(w, h), nil
	case strings.HasPrefix(spec, "graph:"):
		parts := strings.Split(strings.TrimPrefix(spec, "graph:"), ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("bad graph spec %q: want graph:regular:<d>:<seed> or graph:powerlaw:<m>:<seed>", spec)
		}
		param, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad graph spec %q: parameter %q is not an integer", spec, parts[1])
		}
		seed, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad graph spec %q: seed %q is not an integer", spec, parts[2])
		}
		switch parts[0] {
		case "regular":
			return space.RandomRegular(n, param, seed)
		case "powerlaw":
			return space.PowerLaw(n, param, seed)
		default:
			return nil, fmt.Errorf("bad graph spec %q: unknown family %q (want regular or powerlaw)", spec, parts[0])
		}
	default:
		return nil, fmt.Errorf("unknown space %q", spec)
	}
}

func parseRule(spec string, r int) (rule.Rule, error) {
	switch {
	case spec == "majority":
		return rule.Majority(r), nil
	case spec == "xor":
		return rule.XOR{}, nil
	case strings.HasPrefix(spec, "threshold:"):
		k, err := strconv.Atoi(strings.TrimPrefix(spec, "threshold:"))
		if err != nil {
			return nil, fmt.Errorf("bad threshold spec %q", spec)
		}
		return rule.Threshold{K: k}, nil
	case strings.HasPrefix(spec, "eca:"):
		code, err := strconv.Atoi(strings.TrimPrefix(spec, "eca:"))
		if err != nil || code < 0 || code > 255 {
			return nil, fmt.Errorf("bad elementary rule spec %q", spec)
		}
		return rule.Elementary(uint8(code)), nil
	default:
		return nil, fmt.Errorf("unknown rule %q", spec)
	}
}
