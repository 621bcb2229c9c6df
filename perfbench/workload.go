package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd lists the end-to-end metrics with their units, in print order.
// Every one is printed; those not inResult stay out of the result line
// (and so out of BENCHMARK.json's bounds) because in a set of ten seeds
// their IQR/median exceeded the largest bound the benchmark may set (0.25):
// hit_p99_us (0.6), max_rps (0.39), cold_p50_ms (0.29) and cold_p90_ms
// (0.30), all of which move with the CPU the host leaves the virtual
// machine more than in proportion to it.
var endToEnd = []struct {
	name, unit string
	inResult   bool
}{
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
	{"par_configs_per_s", "1/s", true},
	{"seq_configs_per_s", "1/s", true},
	{"quotient_configs_per_s", "1/s", true},
	{"hit_p50_us", "us", true},
	{"hit_p99_us", "us", false},
	{"cold_p50_ms", "ms", false},
	{"cold_p90_ms", "ms", false},
	{"max_rps", "1/s", false},
	{"claims_s", "s", true},
}

// runDeadline bounds one whole run; a phase still running then is killed
// and the run fails.
const runDeadline = 170 * time.Second

// setupSamples is how many fresh starts each phase kind's set-up time is
// the median of; set-up-only processes make up the difference.
const setupSamples = 3

// censusShare is the share of the run's seconds given to repeated census
// passes (at least one pass always runs).
const censusShare = 0.45

type runner struct {
	ctx      context.Context
	exe      string
	workload string
	seed     int64
	seconds  float64
	dir      string
}

// child runs one phase in a fresh process and returns its result.
func (r *runner) child(phase string, rep int, traced, setupOnly bool) (*phaseResult, time.Duration, error) {
	args := []string{"-phase", phase, "-workload", r.workload, "-seed", itoa(r.seed),
		"-seconds", strconv.FormatFloat(r.seconds, 'g', -1, 64), "-rep", strconv.Itoa(rep), "-dir", r.dir,
		"-trace", map[bool]string{false: "0", true: "1"}[traced]}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	var stdout bytes.Buffer
	start := time.Now()
	cmd := exec.CommandContext(r.ctx, r.exe, append(args, "-t0", itoa(start.UnixNano()))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// A phase dies with the run, so no process outlives it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	dt := time.Since(start)
	if err != nil {
		return nil, dt, fmt.Errorf("phase %s (rep %d): %w", phase, rep, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res phaseResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, dt, fmt.Errorf("phase %s (rep %d): bad result line: %w", phase, rep, err)
	}
	return &res, dt, nil
}

// plan is the set of phase results of one pass over the workload.
type plan struct {
	census []*phaseResult
	serve  *phaseResult
	claims []*phaseResult
	setups map[string][]float64
}

// claimsReps is how many times an end-to-end run times the claim suite.
// A suite is short (~3 s) and reads the machine's speed at one moment, so
// the suites are spread over the run: half before and after the census
// passes (one before each of the first passes), half after the serve
// ladder.
const claimsReps = 5

// measure runs the census passes, the serve ladder and the claim suites,
// each in fresh processes. A full measurement (the end-to-end run) repeats
// census passes for censusShare of the run, times claimsReps suites spread
// over the run, and adds set-up-only processes until each phase kind has
// setupSamples set-up samples; otherwise (the traced run's pair) each
// phase runs once.
func (r *runner) measure(traced, full bool) (*plan, error) {
	p := &plan{setups: map[string][]float64{}}
	suites, minSetups := 1, 0
	if full {
		suites, minSetups = claimsReps, setupSamples
	}
	claims := func() error {
		res, _, err := r.child("claims", len(p.claims), traced, false)
		if err != nil {
			return err
		}
		p.claims = append(p.claims, res)
		p.setups["claims"] = append(p.setups["claims"], res.SetupS)
		return nil
	}
	budget := time.Duration(r.seconds * censusShare * float64(time.Second))
	var spent time.Duration
	for rep := 0; ; rep++ {
		if len(p.claims) < suites/2 {
			if err := claims(); err != nil {
				return nil, err
			}
		}
		res, dt, err := r.child("census", rep, traced, false)
		if err != nil {
			return nil, err
		}
		p.census = append(p.census, res)
		p.setups["census"] = append(p.setups["census"], res.SetupS)
		spent += dt
		if !full || spent+dt > budget {
			break
		}
	}
	for len(p.claims) < suites/2 {
		if err := claims(); err != nil {
			return nil, err
		}
	}
	var err error
	if p.serve, _, err = r.child("serve", 0, traced, false); err != nil {
		return nil, err
	}
	p.setups["serve"] = append(p.setups["serve"], p.serve.SetupS)
	for len(p.claims) < suites {
		if err := claims(); err != nil {
			return nil, err
		}
	}
	for _, phase := range []string{"census", "serve", "claims"} {
		for rep := 100; len(p.setups[phase]) < minSetups; rep++ {
			res, _, err := r.child(phase, rep, false, true)
			if err != nil {
				return nil, err
			}
			p.setups[phase] = append(p.setups[phase], res.SetupS)
		}
	}
	return p, nil
}

// endToEndValues reduces a plan to the end-to-end metrics: medians over
// the census passes, the serve and claims phases' own numbers, set-up as
// the sum over phase kinds of each kind's median set-up, and peak RSS as
// the largest VmHWM of any measuring process.
func (p *plan) endToEndValues() map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{"par_configs_per_s", "seq_configs_per_s", "quotient_configs_per_s"} {
		var xs []float64
		for _, c := range p.census {
			xs = append(xs, c.Metrics[name])
		}
		m[name] = median(xs)
	}
	for k, v := range p.serve.Metrics {
		m[k] = v
	}
	m["claims_s"] = median(p.claimTimes())
	for _, xs := range p.setups {
		m["setup_s"] += median(xs)
	}
	for _, c := range p.all() {
		m["peak_rss_mb"] = math.Max(m["peak_rss_mb"], c.PeakRSSMB)
	}
	return m
}

// claimTimes lists the run's claim-suite times in the order they ran.
func (p *plan) claimTimes() []float64 {
	var xs []float64
	for _, c := range p.claims {
		xs = append(xs, c.Metrics["claims_s"])
	}
	return xs
}

func (p *plan) all() []*phaseResult {
	return append(append(append([]*phaseResult{}, p.census...), p.serve), p.claims...)
}

func (p *plan) counts() (attempted, failed int, errs []string) {
	for _, c := range p.all() {
		attempted += c.Attempted
		failed += c.Failed
		errs = append(errs, c.Errors...)
	}
	return
}

// layerValues reduces a traced plan to the per-layer metrics.
func (p *plan) layerValues() map[string]float64 {
	m := map[string]float64{}
	for _, c := range p.all() {
		for k, v := range c.Layers {
			m[k] += v
		}
	}
	return m
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runWorkload runs one workload and prints the run record, a table of the
// metrics, and the result JSON as the last line. It returns the exit code.
func runWorkload(workload string, seed int64, seconds float64, trace bool, dir string) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r := &runner{ctx: ctx, exe: exe, workload: workload, seed: seed, seconds: seconds, dir: dir}
	var out result
	record := runRecord(workload, seed, seconds, trace)
	if !trace {
		p, err := r.measure(false, true)
		if err != nil {
			return 1, err
		}
		vals := p.endToEndValues()
		out.Attempted, out.Failed, record["errors"] = p.counts()
		out.Metrics = map[string]metricOut{}
		for _, e := range endToEnd {
			if e.inResult {
				out.Metrics[e.name] = metricOut{vals[e.name], e.unit}
			}
		}
		record["census_passes"] = len(p.census)
		record["claims_s"] = p.claimTimes()
		record["setup_samples"] = p.setups
		record["serve"] = p.serve.Record
		record["census"] = recordsOf(p.census)
		printTable(vals, out.Attempted, out.Failed)
	} else {
		// Untraced and traced passes back to back: the per-layer metrics
		// come from the traced one, and the gap between their end-to-end
		// numbers is the tracing overhead.
		plain, err := r.measure(false, false)
		if err != nil {
			return 1, err
		}
		traced, err := r.measure(true, false)
		if err != nil {
			return 1, err
		}
		a1, f1, e1 := plain.counts()
		a2, f2, e2 := traced.counts()
		out.Attempted, out.Failed, record["errors"] = a1+a2, f1+f2, append(e1, e2...)
		out.Metrics = map[string]metricOut{}
		for k, v := range traced.layerValues() {
			out.Metrics[k] = metricOut{v, layerUnit(k)}
		}
		pv, tv := plain.endToEndValues(), traced.endToEndValues()
		for _, e := range endToEnd {
			if e.name == "setup_s" {
				continue
			}
			out.Metrics["trace.overhead."+e.name] = metricOut{100 * (tv[e.name] - pv[e.name]) / pv[e.name], "%"}
		}
		record["untraced"], record["traced"] = pv, tv
		record["serve"] = traced.serve.Record
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	if err := writeJSON(fmt.Sprintf("%s/record-%s-%d-trace%v.json", dir, workload, seed, trace), record); err != nil {
		return 1, err
	}
	b, err := json.Marshal(record)
	if err != nil {
		return 1, err
	}
	fmt.Printf("run record: %s\n", b)
	b, err = json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 3, fmt.Errorf("%d of %d operations failed or disagreed with their oracle", out.Failed, out.Attempted)
	}
	return 0, nil
}

// runRecord is the context every run records beside its metrics.
func runRecord(workload string, seed int64, seconds float64, trace bool) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit, "ladder_rps": ladder, "reference_rps": refRate,
		"claims_rounds": claimsRounds,
	}
}

func recordsOf(rs []*phaseResult) []map[string]any {
	var out []map[string]any
	for _, r := range rs {
		out = append(out, r.Record)
	}
	return out
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "claim_s."):
		return "s"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	}
	return "count"
}

// printTable prints every end-to-end metric by name with its unit, and
// the error ratio the result line carries as attempted/failed.
func printTable(vals map[string]float64, attempted, failed int) {
	for _, e := range endToEnd {
		note := ""
		if !e.inResult {
			note = " (printed only: not steady enough to bound)"
		}
		fmt.Printf("%-24s %16.6g %s%s\n", e.name, vals[e.name], e.unit, note)
	}
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	fmt.Printf("%-24s %16.6g %s (%d of %d)\n", "error_ratio", ratio, "ratio", failed, attempted)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
