package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"time"
)

// phaseResult is what one phase process reports to the run on the last
// line of its standard output.
type phaseResult struct {
	Phase     string             `json:"phase"`
	SetupS    float64            `json:"setup_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Record    map[string]any     `json:"record,omitempty"`
}

// phaseEnv is what a phase process knows about its place in the run.
type phaseEnv struct {
	workload  string
	seed      int64
	seconds   float64
	rep       int
	t0        time.Time // when the run started this process
	tr        *tracer
	dir       string // scratch directory inside the checkout
	setupOnly bool
}

// rng derives an independent, reproducible stream for one input family
// from the workload seed.
func (e *phaseEnv) rng(family string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(family))
	return rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
}

// setupDone returns the set-up time: process start (as stamped by the run
// before exec) to now, the first timed operation.
func (e *phaseEnv) setupDone() float64 { return time.Since(e.t0).Seconds() }

// check records one operation's oracle verdict.
func (r *phaseResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
		}
	}
}

// fail records a failed operation.
func (r *phaseResult) fail(format string, args ...any) { r.check(false, format, args...) }

// emit prints the result as the process's last line of output. A metric
// that could not be measured (NaN: no samples) fails the phase.
func (r *phaseResult) emit() error {
	r.PeakRSSMB = math.Max(r.PeakRSSMB, peakRSSMB())
	for _, m := range []map[string]float64{r.Metrics, r.Layers} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.fail("metric %s has no samples", k)
				delete(m, k)
			}
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}

func newResult(phase string) *phaseResult {
	return &phaseResult{Phase: phase, Metrics: map[string]float64{}, Layers: map[string]float64{}, Record: map[string]any{}}
}
