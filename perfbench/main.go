// Command perfbench is the repository's benchmark: it runs one workload
// through the public entry points of phasespace, sim, transfer, serve and
// verify, checks every answer against an independent oracle, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on its last line of output. See README.md.
//
//	perfbench -workload census-mid -seed 1 -seconds 40 -trace 0
//
// Each phase of a run executes in a fresh child process (this binary with
// -phase), so the process-global successor memo, analytic memo, transfer
// engine cache and serve cache never carry warm state from one repetition
// into the next.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: census-mid | census-large")
	seed := flag.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 40, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build/perfbench", "scratch directory for span dumps and run records")
	phase := flag.String("phase", "", "internal: run one phase in this process (census | serve | claims | server | spin)")
	rep := flag.Int("rep", 0, "internal: repetition number of the phase")
	t0 := flag.Int64("t0", 0, "internal: Unix ns at which the run started this process")
	setupOnly := flag.Bool("setup-only", false, "internal: stop after set-up")
	flag.Parse()

	if *workload != "census-mid" && *workload != "census-large" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want census-mid or census-large)\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *phase != "" {
		start := time.Now()
		if *t0 != 0 {
			start = time.Unix(0, *t0)
		}
		env := &phaseEnv{workload: *workload, seed: *seed, seconds: *seconds, rep: *rep, t0: start,
			tr: newTracer(*trace == 1), dir: *dir, setupOnly: *setupOnly}
		if err := runPhase(*phase, env); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: phase %s: %v\n", *phase, err)
			os.Exit(1)
		}
		return
	}
	code, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

// runPhase runs one phase in this process and emits its result.
func runPhase(name string, env *phaseEnv) error {
	var res *phaseResult
	var err error
	switch name {
	case "census":
		res, err = runCensus(env)
	case "serve":
		res, err = runServe(env)
	case "claims":
		res, err = runClaims(env)
	case "server":
		return runServerProc(env)
	case "spin":
		return runSpin()
	default:
		return fmt.Errorf("unknown phase %q", name)
	}
	if err != nil {
		return err
	}
	if err := env.tr.write(spanFile(env.dir, env.workload, env.seed, name, env.rep)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if env.tr.on {
		for name, s := range env.tr.selfTimes() {
			res.Layers["self."+name+"_s"] = s
		}
	}
	return res.emit()
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }
