package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/verify"
)

// claimsRounds is the per-claim sampling budget of the claims phase.
const claimsRounds = 1000

// runClaims is the claims phase: verify.RunCtx over every registered
// claim at a fixed rounds budget. Every verdict must be PASS.
//
// Each suite of a run draws its own claim seed from the workload seed and
// the suite's number: the sampled cases move a suite's time by up to 25%
// (S5 alone 0.7–1.2 s), so suites sharing one seed would carry that into
// every run's median, while distinct seeds average it out.
func runClaims(env *phaseEnv) (*phaseResult, error) {
	res := newResult("claims")
	claims := verify.Claims()
	seed := env.rng(fmt.Sprintf("claims/%d", env.rep)).Int63()
	opts := verify.RunOptions{Seed: seed, Rounds: claimsRounds}
	tr := env.tr
	var suite int32 = -1
	last := time.Now()
	opts.OnResult = func(r verify.Result) {
		now := time.Now()
		tr.record("verify.claim", suite, 0, last, now)
		res.Layers["verify.claim_s."+r.ID] = now.Sub(last).Seconds()
		last = now
		res.check(r.Pass, "claim %s failed: %v", r.ID, r.Counterexample)
	}
	res.SetupS = env.setupDone()
	if env.setupOnly {
		return res, nil
	}
	suite = tr.begin("verify.suite", -1, 0)
	t0 := time.Now()
	last = t0
	rep, err := verify.RunCtx(context.Background(), claims, opts)
	res.Metrics["claims_s"] = time.Since(t0).Seconds()
	tr.end(suite)
	if err != nil {
		return nil, err
	}
	if len(rep.Claims) != len(claims) {
		res.fail("report has %d verdicts for %d claims", len(rep.Claims), len(claims))
	}
	res.Record["claims"] = len(claims)
	res.Record["rounds"] = claimsRounds
	res.Record["seed"] = seed
	return res, nil
}
