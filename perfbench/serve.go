package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/space"
	"repro/internal/transfer"
)

// The serve phase drives serve.New's handler, served by a process of its
// own (server.go), over loopback HTTP with an open-loop Poisson schedule at
// each rate of a fixed ladder.

// ladder is the open-loop rate ladder in requests per second; refRate is
// the step the latency metrics are read at. Step durations are shares of
// the phase's time, the reference step getting five shares so its p99
// rests on about twenty samples beyond it. On two cores this mix saturates
// between about 300 and 1000 req/s depending on how much CPU the host
// leaves the machine, so the reference sits below that and the steps
// above it are close enough (×√2) to place the knee.
var ladder = []float64{125, 250, 350, 500, 700, 1000, 1400}

const (
	refRate = 250
	hotKeys = 32
	// dupGap separates the two sends of a cold key.
	dupGap = time.Millisecond
	// SLO that defines max_rps. The hit limit is on the median: more than
	// 1% of hits overlap a cold build holding both cores at every rate, so
	// a p99 limit of this size would fail at every step.
	sloHitP50  = 2 * time.Millisecond
	sloColdP90 = 100 * time.Millisecond
	// lagGrowthLimit is how much the generator's median lateness may rise
	// from the first to the last quarter of a step before the step counts
	// as building a backlog.
	lagGrowthLimit = 5 * time.Millisecond
)

// Cold key categories.
const (
	hot = iota
	coldNew
	coldFollow
	coldTopo
	coldAnalytic
)

var categoryName = []string{"hot", "cold-new", "cold-follow", "cold-topo", "cold-analytic"}

// sreq is one scheduled request.
type sreq struct {
	path  string
	cat   int
	hotIx int
	dupOf int    // index of the first send of this key, or -1
	autom string // identity of the automaton the request builds ("" if none)
	step  int
	due   time.Duration // from the step's start
}

// sres is what the client observed for one request.
type sres struct {
	sent, done time.Duration // from the step's start
	status     int
	cache      string
	body       []byte
	err        error
}

// ecaColdCodes are the elementary rules cold keys draw from: all 256 but
// the sixteen whose transfer-matrix derivation (the census oracle) takes
// about half a second each, which would make the oracle step dominate the
// phase.
func ecaColdCodes() []int {
	slow := map[int]bool{26: true, 41: true, 74: true, 82: true, 88: true, 97: true, 107: true, 121: true,
		134: true, 148: true, 158: true, 167: true, 173: true, 181: true, 214: true, 229: true}
	var out []int
	for c := 0; c < 256; c++ {
		if !slow[c] {
			out = append(out, c)
		}
	}
	return out
}

// ringRules are the threshold rings of the hot set and the analytic keys:
// every (r, k) the transfer engine answers in full (k-of-5 with k=3 exceeds
// its Garden-of-Eden cap). Rules are always spelled threshold:K, never
// majority, so no two specs alias one automaton.
var ringRules = [][2]int{{1, 2}, {2, 2}, {2, 4}}

func q(endpoint string, kv ...string) string {
	v := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i], kv[i+1])
	}
	return "/v1/" + endpoint + "?" + v.Encode()
}

// hotSet derives the 32 warmed keys, spanning all five endpoints.
func hotSet(rng *rand.Rand) []string {
	var keys []string
	seen := map[string]bool{}
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			keys = append(keys, p)
		}
	}
	ring := func() (string, string, string) {
		rk := ringRules[rng.Intn(len(ringRules))]
		return strconv.Itoa(10 + rng.Intn(7)), strconv.Itoa(rk[0]), "threshold:" + strconv.Itoa(rk[1])
	}
	for len(keys) < 8 {
		n, r, rl := ring()
		sem := []string{"parallel", "sequential"}[rng.Intn(2)]
		eng := []string{"auto", "enum"}[rng.Intn(2)]
		add(q("census", "n", n, "r", r, "rule", rl, "semantics", sem, "engine", eng))
	}
	// The analytic keys are fixed, so warming them (the radius-2 engines'
	// spectral derivation and big-integer jumps, most of the set-up) costs
	// the same for every seed.
	for _, a := range [][3]int{{1, 2, 1000}, {1, 2, 100000}, {2, 2, 1000}, {2, 2, 30000}, {2, 4, 3000}, {2, 4, 30000}} {
		add(q("analytic", "n", strconv.Itoa(a[2]), "r", strconv.Itoa(a[0]), "rule", "threshold:"+strconv.Itoa(a[1])))
	}
	for len(keys) < 20 {
		rk := ringRules[rng.Intn(len(ringRules))]
		// n stops at 63: /v1/orbit admits n=64 but answers it with a 500
		// (config.FromIndex panics past 63 nodes), a server defect this
		// benchmark reports rather than measures.
		n := 16 + rng.Intn(48)
		x0 := rng.Uint64() & (uint64(1)<<uint(n) - 1)
		add(q("orbit", "n", strconv.Itoa(n), "r", strconv.Itoa(rk[0]), "rule", "threshold:"+strconv.Itoa(rk[1]),
			"x0", strconv.FormatUint(x0, 10)))
	}
	for len(keys) < 26 {
		n, r, rl := ring()
		add(q("basins", "n", n, "r", r, "rule", rl))
	}
	for len(keys) < hotKeys {
		n, r, rl := ring()
		sem := []string{"parallel", "sequential"}[rng.Intn(2)]
		add(q("verify", "n", n, "r", r, "rule", rl, "semantics", sem))
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// deck deals a fixed multiset of cards in seeded random order, reshuffled
// every round, so each stretch of the schedule has the mix's proportions
// exactly and the work a seed asks for barely depends on the seed: cold
// build times grow as 2^n, and with independent draws the median cold
// latency moved ~40% between seeds.
type deck struct {
	rng         *rand.Rand
	cards, left []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for card, c := range counts {
		for i := 0; i < c; i++ {
			d.cards = append(d.cards, card)
		}
	}
	return d
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		d.left = append(d.left, d.cards...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	c := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return c
}

// coldGen hands out cold keys, each at most once per run.
type coldGen struct {
	rng   *rand.Rand
	cats  *deck    // cold category: 60% new, 20% follow-up, 10% topology, 10% analytic
	sizes *deck    // n-12 of a new ECA key, uniform over [12,18]
	views *deck    // index into ecaEndpoints
	topos *deck    // 0: hypercube:4 (while its keys last), 1: graph:regular
	gsize *deck    // (n-12)/2 of a graph:regular key
	asize *deck    // which tenth of [1000, 100000] an analytic key's n falls in
	codes [][]int  // per n-12, ECA codes not yet used at that n
	built []string // automata of earlier cold-new keys, for follow-ups
	used  map[string]bool
	hyper []string
	gseed int64
}

func newColdGen(rng *rand.Rand) *coldGen {
	g := &coldGen{rng: rng, used: map[string]bool{}, gseed: rng.Int63n(1 << 40),
		cats: newDeck(rng, 0, 6, 2, 1, 1), sizes: newDeck(rng, 1, 1, 1, 1, 1, 1, 1),
		views: newDeck(rng, 1, 1, 1, 1, 1), topos: newDeck(rng, 1, 1), gsize: newDeck(rng, 1, 1, 1, 1),
		asize: newDeck(rng, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)}
	for n := 12; n <= 18; n++ {
		codes := ecaColdCodes()
		rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
		g.codes = append(g.codes, codes)
	}
	for _, k := range []int{2, 3, 4} {
		ks := "threshold:" + strconv.Itoa(k)
		for _, sem := range []string{"parallel", "sequential"} {
			for _, eng := range []string{"auto", "enum"} {
				g.hyper = append(g.hyper,
					q("census", "n", "16", "r", "0", "space", "hypercube:4", "rule", ks, "semantics", sem, "engine", eng),
					q("verify", "n", "16", "r", "0", "space", "hypercube:4", "rule", ks, "semantics", sem, "engine", eng))
			}
		}
		g.hyper = append(g.hyper, q("basins", "n", "16", "r", "0", "space", "hypercube:4", "rule", ks))
	}
	rng.Shuffle(len(g.hyper), func(i, j int) { g.hyper[i], g.hyper[j] = g.hyper[j], g.hyper[i] })
	return g
}

// ecaEndpoints are the five (endpoint, engine) views of one ECA automaton.
var ecaEndpoints = [][2]string{{"census", "auto"}, {"census", "enum"}, {"verify", "auto"}, {"verify", "enum"}, {"basins", ""}}

func ecaPath(code, n int, view [2]string) string {
	kv := []string{"n", strconv.Itoa(n), "r", "1", "rule", "eca:" + strconv.Itoa(code)}
	if view[1] != "" {
		kv = append(kv, "engine", view[1])
	}
	return q(view[0], kv...)
}

// next returns a fresh cold key of the next category.
func (g *coldGen) next() (path string, cat int, autom string, err error) {
	switch g.cats.next() {
	case coldFollow:
		// A view of an automaton an earlier cold key built that no
		// request has asked for yet; a new automaton if there is none.
		for tries := 0; tries < 8 && len(g.built) > 0; tries++ {
			a := g.built[g.rng.Intn(len(g.built))]
			var code, n int
			fmt.Sscanf(a, "eca:%d/%d", &code, &n)
			for _, v := range g.rng.Perm(len(ecaEndpoints)) {
				p := ecaPath(code, n, ecaEndpoints[v])
				if !g.used[p] {
					g.used[p] = true
					return p, coldFollow, a, nil
				}
			}
		}
	case coldTopo:
		if len(g.hyper) > 0 && g.topos.next() == 0 {
			p := g.hyper[len(g.hyper)-1]
			g.hyper = g.hyper[:len(g.hyper)-1]
			g.used[p] = true
			u, _ := url.Parse(p)
			return p, coldTopo, "hypercube:4/" + u.Query().Get("rule"), nil
		}
		d := 3 + g.rng.Intn(2)
		n := 12 + 2*g.gsize.next()
		// The pairing model can fail to realize a simple graph; such a
		// spec is a 422 by design, so only realizable seeds are sent.
		for {
			g.gseed++
			if _, err := space.RandomRegular(n, d, g.gseed); err == nil {
				break
			}
		}
		spec := fmt.Sprintf("graph:regular:%d:%d", d, g.gseed)
		k := strconv.Itoa(2 + g.rng.Intn(2))
		ep := []string{"census", "basins", "verify"}[g.rng.Intn(3)]
		p := q(ep, "n", strconv.Itoa(n), "space", spec, "rule", "threshold:"+k)
		g.used[p] = true
		return p, coldTopo, spec + "/" + k, nil
	case coldAnalytic:
		// An analytic answer's big-integer jump costs in proportion to n.
		for {
			n := 1000 + 9900*g.asize.next() + g.rng.Intn(9900)
			p := q("analytic", "n", strconv.Itoa(n), "r", "1", "rule", "threshold:2")
			if !g.used[p] {
				g.used[p] = true
				return p, coldAnalytic, "", nil
			}
		}
	}
	size := g.sizes.next()
	n := 12 + size
	if len(g.codes[size]) == 0 {
		return "", 0, "", fmt.Errorf("cold ECA automata at n=%d exhausted: shorten the run", n)
	}
	code := g.codes[size][len(g.codes[size])-1]
	g.codes[size] = g.codes[size][:len(g.codes[size])-1]
	p := ecaPath(code, n, ecaEndpoints[g.views.next()])
	g.used[p] = true
	a := fmt.Sprintf("eca:%d/%d", code, n)
	g.built = append(g.built, a)
	return p, coldNew, a, nil
}

// schedule derives the whole open-loop schedule from the seed.
func schedule(rng *rand.Rand, hotN int, stepDur []time.Duration) ([]sreq, error) {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(hotN-1))
	cold := newColdGen(rng)
	coldEvery := newDeck(rng, 9, 1) // one arrival in ten is a cold key
	var reqs []sreq
	for s, rate := range ladder {
		var stepReqs []sreq
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() / rate * 1e9)
			if t >= stepDur[s] {
				break
			}
			if coldEvery.next() == 0 {
				ix := int(zipf.Uint64())
				stepReqs = append(stepReqs, sreq{cat: hot, hotIx: ix, dupOf: -1, step: s, due: t})
				continue
			}
			p, cat, a, err := cold.next()
			if err != nil {
				return nil, err
			}
			stepReqs = append(stepReqs,
				sreq{path: p, cat: cat, autom: a, step: s, due: t},
				sreq{path: p, cat: cat, autom: a, step: s, due: t + dupGap})
		}
		sort.SliceStable(stepReqs, func(i, j int) bool { return stepReqs[i].due < stepReqs[j].due })
		// Point each cold key's second send at its first.
		firstOf := map[string]int{}
		for i := range stepReqs {
			r := &stepReqs[i]
			if r.cat == hot {
				continue
			}
			if j, ok := firstOf[r.path]; ok {
				r.dupOf = len(reqs) + j
			} else {
				firstOf[r.path] = i
				r.dupOf = -1
			}
		}
		reqs = append(reqs, stepReqs...)
	}
	return reqs, nil
}

func runServe(env *phaseEnv) (*phaseResult, error) {
	res := newResult("serve")
	tr := env.tr
	rng := env.rng("serve")
	hotPaths := hotSet(rng)
	stepDur := make([]time.Duration, len(ladder))
	shares := 0.0
	for _, r := range ladder {
		shares += stepShare(r)
	}
	for i, r := range ladder {
		stepDur[i] = time.Duration(env.seconds * serveShare * stepShare(r) / shares * 1e9)
	}
	reqs, err := schedule(rng, len(hotPaths), stepDur)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		if reqs[i].cat == hot {
			reqs[i].path = hotPaths[reqs[i].hotIx]
		}
	}

	sp, err := startServer(env)
	if err != nil {
		return nil, err
	}
	finished := false
	defer func() {
		if !finished {
			sp.kill()
		}
	}()
	// Requests are multiplexed over at most nproc HTTP/2 connections, so a
	// slow build never holds a hit behind it on the client side.
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		Protocols: h2c()}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	base := "http://" + sp.addr

	// Warm the hot set: one build each, and their bodies become the
	// reference every later hit must match byte for byte.
	warm := make([][]byte, len(hotPaths))
	for i, p := range hotPaths {
		status, _, body, err := get(client, base+p, -1)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warming %s: status %d: %v: %s", p, status, err, body)
		}
		warm[i] = body
	}
	res.SetupS = env.setupDone()
	if env.setupOnly {
		return res, nil
	}

	stopSpinner, err := startIdleSpinner(env)
	if err != nil {
		return nil, err
	}
	out := make([]sres, len(reqs))
	stepStart := make([]time.Time, len(ladder))
	phase := tr.begin("serve.ladder", -1, 0)
	lo, steps := 0, 0
	for s := range ladder {
		hi := lo
		for hi < len(reqs) && reqs[hi].step == s {
			hi++
		}
		stepStart[s] = time.Now()
		runStep(client, base, reqs, out, lo, hi, stepStart[s])
		lo, steps = hi, s+1
		time.Sleep(100 * time.Millisecond)
		// The ladder stops at the first step past the reference that
		// misses the SLO: max_rps needs no step beyond it.
		if ladder[s] > refRate && !stepStats(reqs[:hi], out[:hi], stepDur)[s].Pass {
			break
		}
	}
	tr.end(phase)
	stopSpinner()
	reqs, out = reqs[:lo], out[:lo]
	done := serverDone{Hot: hotPaths}
	seen := map[string]bool{}
	for _, r := range reqs {
		if !seen[r.path] {
			seen[r.path] = true
			done.URLs = append(done.URLs, r.path)
		}
	}
	srep, err := sp.finish(done)
	finished = true
	if err != nil {
		return nil, err
	}
	res.PeakRSSMB = srep.PeakRSSMB
	for _, e := range srep.Errors {
		res.fail("server: %s", e)
	}

	// Checks: status, byte identity, and the census oracles.
	oracle := newBodyOracle()
	for i, r := range reqs {
		o := out[i]
		switch {
		case o.err != nil || o.status != http.StatusOK:
			res.fail("%s %s: status %d: %v", categoryName[r.cat], r.path, o.status, o.err)
		case r.cat == hot:
			res.check(bytes.Equal(o.body, warm[r.hotIx]), "hot %s: body differs from the warmed body", r.path)
		case r.dupOf >= 0:
			res.check(bytes.Equal(o.body, out[r.dupOf].body), "cold %s: repeated key returned a different body", r.path)
		default:
			err := oracle.check(r.path, o.body)
			res.check(err == nil, "%s %s: %v", categoryName[r.cat], r.path, err)
		}
	}
	for i, p := range hotPaths {
		if err := oracle.check(p, warm[i]); err != nil {
			res.fail("hot %s: %v", p, err)
		}
	}
	res.Layers["transfer.census_s"] = oracle.transferS

	stats := stepStats(reqs, out, stepDur)[:steps]
	ref := -1
	for i, r := range ladder {
		if r == refRate {
			ref = i
		}
	}
	st := stats[ref]
	if st.HitP99us == nil || st.ColdP90ms == nil {
		return nil, fmt.Errorf("reference step has %d hits and %d cold requests: too few for p99 / p90", st.Hits, st.Colds)
	}
	res.Metrics["hit_p50_us"] = *st.HitP50us
	res.Metrics["hit_p99_us"] = *st.HitP99us
	res.Metrics["cold_p50_ms"] = *st.ColdP50ms
	res.Metrics["cold_p90_ms"] = *st.ColdP90ms
	res.Metrics["max_rps"] = maxRPS(stats)
	res.Record["ladder"] = stats
	res.Record["reference_step_by_category"] = categoryStats(reqs, out, ref)
	res.Record["connections"] = conns
	res.Record["cold_shared_work_ratio"], res.Record["cold_requests"] = sharedWork(reqs, out)

	if tr.on {
		serveLayers(env, res, srep, reqs, out, stepStart, ref)
	}
	return res, nil
}

// serveShare is the share of the run's seconds the ladder takes.
const serveShare = 0.45

func stepShare(rate float64) float64 {
	if rate == refRate {
		return 5
	}
	return 1
}

// get performs one request and reads the whole body.
func get(client *http.Client, u string, id int) (status int, cache string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("X-Bench-Req", strconv.Itoa(id))
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-CA-Cache"), body, err
}

// runStep sends reqs[lo:hi] on their schedule, each on its own goroutine
// over the shared HTTP/2 connections, and waits for every answer.
func runStep(client *http.Client, base string, reqs []sreq, out []sres, lo, hi int, start time.Time) {
	var wg sync.WaitGroup
	for i := lo; i < hi; i++ {
		waitUntil(start.Add(reqs[i].due))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Since(start)
			status, cache, body, err := get(client, base+reqs[i].path, i)
			out[i] = sres{sent: sent, done: time.Since(start), status: status, cache: cache, body: body, err: err}
		}(i)
	}
	wg.Wait()
}

// waitUntil sleeps until t in a nanosleep system call. The runtime's own
// timers fire on a 1 ms grid on Linux, which would add up to a
// millisecond of generator lateness to every request; spinning instead
// would hold one of the two Ps the client's connections need.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// stepStat summarizes one ladder step. A percentile with fewer than ten
// samples beyond it is left out (nil).
type stepStat struct {
	Rate      float64  `json:"rate"`
	Seconds   float64  `json:"seconds"`
	Requests  int      `json:"requests"`
	Hits      int      `json:"hit_samples"`
	Colds     int      `json:"cold_samples"`
	HitP50us  *float64 `json:"hit_p50_us,omitempty"`
	HitP90us  *float64 `json:"hit_p90_us,omitempty"`
	HitP99us  *float64 `json:"hit_p99_us,omitempty"`
	ColdP50ms *float64 `json:"cold_p50_ms,omitempty"`
	ColdP90ms *float64 `json:"cold_p90_ms,omitempty"`
	LagP50us  *float64 `json:"lateness_p50_us,omitempty"`
	LagP99us  *float64 `json:"lateness_p99_us,omitempty"`
	GrowthMS  float64  `json:"lateness_growth_ms"`
	Load      float64  `json:"slo_load"` // worst of the three SLO ratios; ≤ 1 passes
	Pass      bool     `json:"pass"`
}

// pct is the q-quantile of xs scaled by unit, or nil without ten samples
// beyond it.
func pct(xs []float64, q, unit float64) *float64 {
	if !tailOK(len(xs), q) {
		return nil
	}
	v := quantile(xs, q) * unit
	return &v
}

func stepStats(reqs []sreq, out []sres, stepDur []time.Duration) []stepStat {
	steps := make([]stepStat, len(ladder))
	for s := range ladder {
		var hits, colds, lags, firstQ, lastQ []float64
		quarter := stepDur[s] / 4
		for i, r := range reqs {
			if r.step != s {
				continue
			}
			o := out[i]
			lat := (o.done - r.due).Seconds()
			lag := (o.sent - r.due).Seconds()
			lags = append(lags, lag)
			switch {
			case r.due < quarter:
				firstQ = append(firstQ, lag)
			case r.due >= stepDur[s]-quarter:
				lastQ = append(lastQ, lag)
			}
			if r.cat == hot {
				hits = append(hits, lat)
			} else if r.dupOf < 0 {
				colds = append(colds, lat)
			}
		}
		growth := median(lastQ) - median(firstQ)
		st := stepStat{Rate: ladder[s], Seconds: stepDur[s].Seconds(), Requests: len(lags),
			Hits: len(hits), Colds: len(colds),
			HitP50us: pct(hits, 0.5, 1e6), HitP90us: pct(hits, 0.9, 1e6), HitP99us: pct(hits, 0.99, 1e6),
			ColdP50ms: pct(colds, 0.5, 1e3), ColdP90ms: pct(colds, 0.9, 1e3),
			LagP50us: pct(lags, 0.5, 1e6), LagP99us: pct(lags, 0.99, 1e6),
			GrowthMS: growth * 1e3}
		st.Load = math.Max(quantile(hits, 0.5)/sloHitP50.Seconds(),
			math.Max(quantile(colds, 0.9)/sloColdP90.Seconds(), growth/lagGrowthLimit.Seconds()))
		st.Pass = st.Load <= 1
		steps[s] = st
	}
	return steps
}

// categoryStats reports per-category latency (ms, from due time) of one
// step's first sends.
func categoryStats(reqs []sreq, out []sres, step int) map[string]categoryStat {
	lat := map[string][]float64{}
	for i, r := range reqs {
		if r.step == step && r.dupOf < 0 {
			name := categoryName[r.cat]
			if r.cat != hot {
				name += " " + strings.SplitN(strings.TrimPrefix(r.path, "/v1/"), "?", 2)[0]
			}
			lat[name] = append(lat[name], (out[i].done - r.due).Seconds())
		}
	}
	stats := map[string]categoryStat{}
	for k, v := range lat {
		stats[k] = categoryStat{len(v), pct(v, 0.5, 1e3), pct(v, 0.9, 1e3)}
	}
	return stats
}

type categoryStat struct {
	N     int      `json:"samples"`
	P50ms *float64 `json:"p50_ms,omitempty"`
	P90ms *float64 `json:"p90_ms,omitempty"`
}

// maxRPS is the highest rate meeting the SLO (hit p50, cold p90, and no
// growing backlog), interpolated on a log scale between the last passing
// step and the first failing one by where the worst SLO ratio crosses 1.
// Below the first step it scales the first rate by 1/load; above the last
// it reports the last rate.
func maxRPS(steps []stepStat) float64 {
	for i, st := range steps {
		if st.Pass {
			continue
		}
		if i == 0 {
			return st.Rate / st.Load
		}
		prev := steps[i-1]
		lp, lf := math.Log(math.Max(prev.Load, 1e-9)), math.Log(st.Load)
		frac := -lp / (lf - lp)
		return math.Exp(math.Log(prev.Rate) + frac*(math.Log(st.Rate)-math.Log(prev.Rate)))
	}
	return steps[len(steps)-1].Rate
}

// sharedWork measures the share of cold first sends whose automaton an
// earlier, already answered request had built (so the successor memo could
// serve it), with the count of cold first sends as its base.
func sharedWork(reqs []sreq, out []sres) (float64, int) {
	type event struct {
		at    time.Duration
		step  int
		autom string
	}
	var builtAt []event
	for i, r := range reqs {
		if r.autom != "" && r.dupOf < 0 && out[i].status == http.StatusOK {
			builtAt = append(builtAt, event{out[i].done, r.step, r.autom})
		}
	}
	var shared, base int
	for i, r := range reqs {
		if r.cat == hot || r.dupOf >= 0 {
			continue
		}
		base++
		if r.autom == "" {
			continue
		}
		for _, e := range builtAt {
			if e.autom == r.autom && (e.step < r.step || (e.step == r.step && e.at < out[i].sent)) {
				shared++
				break
			}
		}
	}
	if base == 0 {
		return 0, 0
	}
	return float64(shared) / float64(base), base
}

// bodyOracle checks answers against independent computations: census
// bodies on rings against the transfer-matrix census, sequential threshold
// censuses against Theorem 1, threshold graphs against Goles–Olivos
// (period ≤ 2), and basin tables against the configuration count.
type bodyOracle struct {
	engines   map[string]*transfer.Engine
	censuses  map[string]*transfer.Census
	transferS float64
}

func newBodyOracle() *bodyOracle {
	return &bodyOracle{engines: map[string]*transfer.Engine{}, censuses: map[string]*transfer.Census{}}
}

func (o *bodyOracle) check(path string, body []byte) error {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("body is not a serve.Response: %v", err)
	}
	qr := resp.Query
	if qr == nil {
		return errors.New("body has no query echo")
	}
	threshold := strings.HasPrefix(qr.Rule, "threshold:")
	if c := resp.SeqCensus; c != nil && threshold && !c.Acyclic {
		return errors.New("sequential threshold census is cyclic (Theorem 1)")
	}
	if b := resp.Basins; b != nil && b.Listed == b.Attractors {
		var sum uint64
		for _, x := range b.Basins {
			sum += x.Size
		}
		if sum != uint64(1)<<uint(qr.N) {
			return fmt.Errorf("basin sizes sum to %d, want 2^%d", sum, qr.N)
		}
	}
	c := resp.Census
	if c == nil {
		return nil
	}
	if c.Configs != uint64(1)<<uint(qr.N) {
		return fmt.Errorf("census covers %d configurations, want 2^%d", c.Configs, qr.N)
	}
	if qr.Space != "ring" || qr.Memoryless {
		if threshold && c.MaxPeriod > 2 {
			return fmt.Errorf("threshold graph census has period %d > 2", c.MaxPeriod)
		}
		return nil
	}
	tc, err := o.census(qr)
	if err != nil {
		return fmt.Errorf("transfer oracle: %v", err)
	}
	if !eqU(tc.FixedPoints, uint64(c.FixedPoints)) || !eqU(tc.GardenOfEden, c.GardenOfEden) ||
		(c.MaxPeriod <= 2 && !eqU(tc.TwoCycleStates, c.CycleStates)) {
		return fmt.Errorf("census fp=%d goe=%d cyc=%d != transfer fp=%s goe=%s 2cyc=%s",
			c.FixedPoints, c.GardenOfEden, c.CycleStates, tc.FixedPoints, tc.GardenOfEden, tc.TwoCycleStates)
	}
	return nil
}

func (o *bodyOracle) census(qr *serve.Request) (*transfer.Census, error) {
	key := fmt.Sprintf("%s|%d|%d", qr.Rule, qr.R, qr.N)
	if c := o.censuses[key]; c != nil {
		return c, nil
	}
	rl, err := qr.ParseRule()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer func() { o.transferS += time.Since(t0).Seconds() }()
	ek := fmt.Sprintf("%s|%d", qr.Rule, qr.R)
	eng := o.engines[ek]
	if eng == nil {
		if eng, err = transfer.New(rl, qr.R); err != nil {
			return nil, err
		}
		o.engines[ek] = eng
	}
	c, err := eng.TakeCensus(uint64(qr.N))
	if err != nil {
		return nil, err
	}
	o.censuses[key] = c
	return c, nil
}

// serveLayers computes the traced run's serve per-layer metrics: spans
// for each request (due → done) with its queueing (due → sent) and the
// server's handler span as children, handler and HTTP times at the
// reference rate, and the server's counters and layer timings.
func serveLayers(env *phaseEnv, res *phaseResult, srep *serverReport, reqs []sreq, out []sres,
	stepStart []time.Time, ref int) {
	tr := env.tr
	hspans := map[int64][2]int64{}
	for _, h := range srep.Handler {
		hspans[h[0]] = [2]int64{h[1], h[2]}
	}
	var hHit, hBuild, httpT, lag []float64
	for i, r := range reqs {
		o := out[i]
		start := stepStart[r.step]
		due := start.Add(r.due)
		id := tr.record("serve.request", -1, int64(i), due, start.Add(o.done))
		tr.record("serve.queue", id, int64(i), due, start.Add(o.sent))
		h, ok := hspans[int64(i)]
		if !ok {
			continue
		}
		tr.record("serve.handler", id, int64(i), time.Unix(0, h[0]), time.Unix(0, h[1]))
		if r.step != ref {
			continue
		}
		hd := float64(h[1]-h[0]) / 1e9
		lag = append(lag, (o.sent - r.due).Seconds())
		switch o.cache {
		case "hit", "disk":
			hHit = append(hHit, hd)
			httpT = append(httpT, (o.done-o.sent).Seconds()-hd)
		case "build":
			hBuild = append(hBuild, hd)
		}
	}
	L := res.Layers
	for k, v := range srep.Layers {
		L[k] = v
	}
	L["serve.handler_hit_us.p50"] = quantile(hHit, 0.5) * 1e6
	L["serve.handler_hit_us.p99"] = quantile(hHit, 0.99) * 1e6
	L["serve.handler_build_ms.p50"] = quantile(hBuild, 0.5) * 1e3
	L["serve.handler_build_ms.p90"] = quantile(hBuild, 0.9) * 1e3
	L["serve.http_us"] = quantile(httpT, 0.5) * 1e6
	L["serve.send_lag_us.p99"] = quantile(lag, 0.99) * 1e6
	snap := srep.Snapshot
	lookups := snap.Cache.Hits + snap.Cache.Misses
	L["serve.cache.lookups"] = float64(lookups)
	if lookups > 0 {
		L["serve.cache.hit_ratio"] = float64(snap.Cache.Hits) / float64(lookups)
	}
	flights := snap.Builds + snap.Coalesced
	L["serve.flight.requests"] = float64(flights)
	if flights > 0 {
		L["serve.flight.coalesce_ratio"] = float64(snap.Coalesced) / float64(flights)
	}
	L["serve.admission.shed"] = float64(snap.ShedFull + snap.ShedWait)
	L["serve.builds"] = float64(snap.Builds)
	L["serve.degraded"] = float64(snap.Degraded)
	ratio, base := sharedWork(reqs, out)
	L["serve.cold.shared_work_ratio"] = ratio
	L["serve.cold.requests"] = float64(base)
}
