package main

import (
	"context"

	"io"
	"os"
	"repro/internal/phasespace"
	"strings"
	"testing"
)

func TestParseSpace(t *testing.T) {
	cases := []struct {
		spec    string
		wantN   int
		wantErr bool
	}{
		{"ring", 8, false},
		{"line", 8, false},
		{"complete", 8, false},
		{"hypercube:3", 8, false},
		{"torus:4x3", 12, false},
		{"hypercube:x", 0, true},
		{"torus:4", 0, true},
		{"nope", 0, true},
	}
	for _, c := range cases {
		sp, err := parseSpace(c.spec, 8, 1)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseSpace(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSpace(%q): %v", c.spec, err)
			continue
		}
		if sp.N() != c.wantN {
			t.Errorf("parseSpace(%q).N() = %d, want %d", c.spec, sp.N(), c.wantN)
		}
	}
}

func TestParseRule(t *testing.T) {
	if r, err := parseRule("majority", 2); err != nil || r.Name() != "threshold(k=3)" {
		t.Errorf("majority r=2: %v %v", r, err)
	}
	if _, err := parseRule("threshold:2", 1); err != nil {
		t.Errorf("threshold:2: %v", err)
	}
	if _, err := parseRule("eca:110", 1); err != nil {
		t.Errorf("eca:110: %v", err)
	}
	for _, bad := range []string{"eca:300", "eca:x", "threshold:x", "bogus"} {
		if _, err := parseRule(bad, 1); err == nil {
			t.Errorf("parseRule(%q) accepted", bad)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	// Full analysis path on a tiny automaton (stdout noise is acceptable in
	// tests; correctness of the numbers is covered by the phasespace suite).
	ctx := context.Background()
	if err := run(ctx, 4, 1, "majority", "ring", "", false, false, 0, "", false, "", false, false, phasespace.StrategyAuto, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, 4, 1, "xor", "ring", "", true, true, 2, "", false, "", false, false, phasespace.StrategyAuto, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, 2, 1, "xor", "complete", "sequential", false, false, 1, "", false, "", false, false, phasespace.StrategyAuto, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, 4, 1, "majority", "ring", "bogus", false, false, 0, "", false, "", false, false, phasespace.StrategyAuto, 0); err == nil {
		t.Fatal("bogus dot mode accepted")
	}
	if err := run(ctx, 4, 1, "majority", "ring", "", false, false, 0, "", false, "explode:1", false, false, phasespace.StrategyAuto, 0); err == nil {
		t.Fatal("bad fault spec accepted")
	}
}

// TestRunSmokeCheckpointed exercises the checkpointed analysis path end
// to end, including the sequential .seq sidecar checkpoint.
func TestRunSmokeCheckpointed(t *testing.T) {
	ckpt := t.TempDir() + "/phase.ckpt.gz"
	ctx := context.Background()
	if err := run(ctx, 12, 1, "majority", "ring", "", false, false, 2, ckpt, false, "", false, false, phasespace.StrategyAuto, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, 12, 1, "majority", "ring", "", false, false, 2, ckpt, true, "", false, false, phasespace.StrategyAuto, 0); err != nil {
		t.Fatalf("resume over a complete checkpoint failed: %v", err)
	}
}

// captureRun runs the analysis with stdout redirected and returns the
// printed report.
func captureRun(t *testing.T, quotient bool, n int, rule, spSpec string, verbose bool, workers int) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), n, 1, rule, spSpec, "", verbose, false, workers, "", false, "", false, quotient, phasespace.StrategyAuto, 0)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run(quotient=%v, n=%d, %s): %v", quotient, n, rule, runErr)
	}
	return string(out)
}

// TestQuotientOutputMatchesRaw: the -quotient report must be byte-identical
// to the raw report (both census tables) — the CLI-level form of the
// orbit-weighting differential.
func TestQuotientOutputMatchesRaw(t *testing.T) {
	for _, rule := range []string{"majority", "threshold:1", "eca:232"} {
		for _, workers := range []int{1, 4} {
			raw := captureRun(t, false, 12, rule, "ring", false, workers)
			quot := captureRun(t, true, 12, rule, "ring", false, workers)
			if raw != quot {
				t.Errorf("rule %s workers=%d: -quotient output differs from raw:\n--- raw ---\n%s--- quotient ---\n%s", rule, workers, raw, quot)
			}
		}
	}
}

// TestQuotientRunRejections: -quotient with an unsupported automaton or
// DOT export must error, not panic.
func TestQuotientRunRejections(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, 10, 1, "xor", "ring", "", false, false, 1, "", false, "", false, true, phasespace.StrategyAuto, 0); err == nil {
		t.Fatal("-quotient accepted a non-threshold rule")
	}
	if err := run(ctx, 10, 1, "majority", "line", "", false, false, 1, "", false, "", false, true, phasespace.StrategyAuto, 0); err == nil {
		t.Fatal("-quotient accepted a non-circulant space")
	}
	if err := run(ctx, 10, 1, "majority", "ring", "parallel", false, false, 1, "", false, "", false, true, phasespace.StrategyAuto, 0); err == nil {
		t.Fatal("-quotient accepted -dot export")
	}
}

// TestSequentialSectionGolden pins the sequential table (and the -v witness
// cycle of a cyclic space) byte for byte.
func TestSequentialSectionGolden(t *testing.T) {
	cases := []struct {
		n          int
		rule, sp   string
		sequential string
	}{
		{8, "majority", "ring", `
== sequential phase space ==
quantity                                value
--------------------------------------  -----
acyclic (no update sequence can cycle)  true
fixed points                            46
pseudo-fixed points                     208
unreachable states                      46
temporal 2-cycles                       0
`},
		{2, "xor", "complete", `
== sequential phase space ==
quantity                                value
--------------------------------------  -----
acyclic (no update sequence can cycle)  false
fixed points                            1
pseudo-fixed points                     2
unreachable states                      1
temporal 2-cycles                       2
witness cycle: 11 -> 01
`},
	}
	for _, c := range cases {
		out := captureRun(t, false, c.n, c.rule, c.sp, true, 1)
		i := strings.Index(out, "\n== sequential phase space ==")
		if i < 0 || out[i:] != c.sequential {
			t.Errorf("%s on %s n=%d: sequential section\n%s\nwant\n%s", c.rule, c.sp, c.n, out[max(i, 0):], c.sequential)
		}
	}
}
