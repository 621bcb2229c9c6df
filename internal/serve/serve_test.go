package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/config"
	"repro/internal/faultinject"
	"repro/internal/rule"
	"repro/internal/space"
)

// The invariants under test (run these with -race): a thundering herd on
// one uncached key costs exactly one build and every client gets
// byte-identical bytes; eviction under memory pressure spills and reloads
// through the checkpoint path; a waiter deadline expiring mid-build does
// not poison the build for anyone else; over-cap queries degrade to
// analytic answers instead of failing; a full admission queue sheds with
// 503 + Retry-After; injected faults fire at their exact rate and are
// ledgered; shard panics are absorbed by the supervisor; and SIGTERM
// drain finishes every in-flight request.

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

func decode(t *testing.T, body []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad response body %s: %v", body, err)
	}
	return &r
}

// TestHerdCoalescesToOneBuild is the headline coalescing invariant: K
// concurrent misses on one uncached key run exactly one build, and every
// client receives byte-identical bytes.
func TestHerdCoalescesToOneBuild(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const K = 64
	url := ts.URL + "/v1/census?n=14&rule=majority&engine=enum&tag=herd"
	bodies := make([][]byte, K)
	codes := make([]int, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _ = get(t, url)
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	builds, coalesced := s.FlightStats()
	if builds != 1 {
		t.Fatalf("herd of %d ran %d builds, want exactly 1 (coalesced %d)", K, builds, coalesced)
	}
	r := decode(t, bodies[0])
	if r.Census == nil || r.Census.Configs != 1<<14 {
		t.Fatalf("census missing or wrong: %s", bodies[0])
	}
	// A follow-up request is a pure cache hit.
	code, body, hdr := get(t, url)
	if code != http.StatusOK || hdr.Get("X-CA-Cache") != "hit" {
		t.Fatalf("follow-up: status %d, X-CA-Cache %q", code, hdr.Get("X-CA-Cache"))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Fatal("cache hit returned different bytes than the build")
	}
}

// TestCacheEvictionSpillsAndReloads: entries evicted past the byte budget
// land in the spill directory and come back as disk hits; a corrupted
// spill file degrades to a miss, never an error.
func TestCacheEvictionSpillsAndReloads(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(256, dir)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"k":%d,"pad":%q}`, i, strings.Repeat("x", 80)))
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", i)
		c.Put(keys[i], val(i))
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Spills == 0 {
		t.Fatalf("no eviction/spill under pressure: %+v", st)
	}
	if st.Bytes > 256 {
		t.Fatalf("cache over budget: %+v", st)
	}
	// The oldest key was evicted from memory but survives on disk.
	got, src := c.Get(keys[0])
	if src != "disk" || !bytes.Equal(got, val(0)) {
		t.Fatalf("evicted key came back via %q with %s", src, got)
	}
	if c.Stats().DiskHits == 0 {
		t.Fatal("disk hit not counted")
	}

	// Corrupt a spilled entry: truncation must read as a plain miss.
	c2, err := NewCache(256, dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, keys[1]+".ckpt.gz")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected spill file for %s: %v", keys[1], err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, src := c2.Get(keys[1]); src != "" {
		t.Fatalf("corrupt spill served as %q", src)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt spill file not removed")
	}
}

// TestCacheFlushWarmsRestart: Flush persists every resident entry (the
// SIGTERM path), and a fresh cache over the same directory starts warm.
func TestCacheFlushWarmsRestart(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCache(1<<20, dir)
	c.Put("00000000000000aa", []byte(`{"v":1}`))
	c.Put("00000000000000bb", []byte(`{"v":2}`))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c2, _ := NewCache(1<<20, dir)
	if got, src := c2.Get("00000000000000aa"); src != "disk" || string(got) != `{"v":1}` {
		t.Fatalf("restarted cache: %q via %q", got, src)
	}
}

// TestDeadlineExpiryMidBuildDoesNotPoison: a waiter whose deadline
// expires mid-build gets 504, while the detached build completes and
// feeds the cache — the next client gets the answer without a rebuild.
func TestDeadlineExpiryMidBuildDoesNotPoison(t *testing.T) {
	plan, err := faultinject.Parse("delay:0=300msx16")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Faults: plan})
	// threshold:1 (not used by other tests): the process-wide successor
	// memo is keyed by (kind, rule, space, n), so reusing another test's
	// automaton would skip the campaign — and the injected delay.
	url := ts.URL + "/v1/census?n=14&rule=threshold:1&engine=enum&tag=slow"
	code, body, _ := get(t, url+"&timeout=30ms")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired waiter got %d: %s", code, body)
	}
	// The detached build keeps running; with a generous deadline the same
	// key answers 200 — and the build counter proves no rebuild happened.
	code, body, _ = get(t, url)
	if code != http.StatusOK {
		t.Fatalf("post-expiry request got %d: %s", code, body)
	}
	if builds, _ := s.FlightStats(); builds != 1 {
		t.Fatalf("deadline expiry caused %d builds, want 1", builds)
	}
}

// TestOverCapDegradesToAnalytic: census at n far over every enumeration
// cap answers 200 through the transfer engine, marked degraded, with the
// omitted trajectory quantities listed; an explicit engine=enum at the
// same n is refused with 422.
func TestOverCapDegradesToAnalytic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts.URL+"/v1/census?n=100&rule=majority")
	if code != http.StatusOK {
		t.Fatalf("over-cap auto census got %d: %s", code, body)
	}
	r := decode(t, body)
	if !r.Degraded || r.Engine != EngineAnalytic || r.Analytic == nil {
		t.Fatalf("over-cap answer not a degraded analytic census: %s", body)
	}
	if len(r.OmittedQuantities) == 0 || r.DegradationReason == "" {
		t.Fatalf("degraded answer does not disclose what was omitted: %s", body)
	}
	if r.Analytic.FixedPoints == "" || r.Analytic.FixedPoints == "0" {
		t.Fatalf("majority on a 100-ring has fixed points, got %q", r.Analytic.FixedPoints)
	}

	code, body, _ = get(t, ts.URL+"/v1/census?n=100&rule=majority&engine=enum")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("explicit enum over cap got %d, want 422: %s", code, body)
	}
}

// TestQueueFullSheds503WithRetryAfter: with one build slot and a
// zero-depth queue, a second distinct cold key is shed immediately.
func TestQueueFullSheds503WithRetryAfter(t *testing.T) {
	plan, err := faultinject.Parse("delay:0=500msx16")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Faults: plan, MaxBuilds: 1, QueueDepth: -1})
	// Occupy the only build slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body, _ := get(t, ts.URL+"/v1/census?n=14&rule=threshold:3&engine=enum&tag=occupant")
		if code != http.StatusOK {
			t.Errorf("occupant build got %d: %s", code, body)
		}
	}()
	// Wait until the occupant build actually starts.
	for i := 0; ; i++ {
		if builds, _ := s.FlightStats(); builds == 1 {
			break
		}
		if i > 200 {
			t.Fatal("occupant build never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it pass admission into the slot
	code, body, hdr := get(t, ts.URL+"/v1/census?n=14&rule=eca:110&engine=enum&tag=shed-me")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("second cold key got %d, want 503: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s.adm.ShedFull() == 0 {
		t.Fatal("shed not counted")
	}
	<-done
}

// TestInjectedHTTPFaultsFireAtExactRateAndAreLedgered: an http:503:1 plan
// fails every query request with the injection header set, /faults
// exports the fired ledger, and probe endpoints are exempt.
func TestInjectedHTTPFaultsFireAtExactRateAndAreLedgered(t *testing.T) {
	plan, err := faultinject.Parse("http:503:1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Faults: plan})
	for i := 0; i < 5; i++ {
		code, _, hdr := get(t, ts.URL+"/v1/analytic?n=50")
		if code != http.StatusServiceUnavailable || hdr.Get("X-Injected-Fault") != "http:503" {
			t.Fatalf("request %d: status %d, X-Injected-Fault %q", i, code, hdr.Get("X-Injected-Fault"))
		}
	}
	// Probes bypass injection.
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz was fault-injected: %d", code)
	}
	code, body, _ := get(t, ts.URL+"/faults")
	if code != http.StatusOK {
		t.Fatalf("/faults: %d", code)
	}
	var ledger []faultinject.LedgerEntry
	if err := json.Unmarshal(body, &ledger); err != nil {
		t.Fatalf("/faults body %s: %v", body, err)
	}
	if len(ledger) != 1 || ledger[0].Kind != "http" || ledger[0].Fired != 5 {
		t.Fatalf("ledger = %+v, want one http rule fired 5 times", ledger)
	}
	if snap := s.Snapshot(); snap.Injected != 5 || snap.ServerErrors != 5 {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestShardPanicIsRetriedToSuccess: a panic fault in the build shards is
// absorbed by the supervised campaign runtime — the client still gets its
// 200 and the supervisor stats record the recovery.
func TestShardPanicIsRetriedToSuccess(t *testing.T) {
	plan, err := faultinject.Parse("panic:3,error:5x2")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Faults: plan})
	code, body, _ := get(t, ts.URL+"/v1/census?n=15&rule=threshold:2&engine=enum&tag=faulty")
	if code != http.StatusOK {
		t.Fatalf("build under panic plan got %d: %s", code, body)
	}
	snap := s.Snapshot()
	if snap.Supervisor.Panics == 0 {
		t.Fatalf("injected panic never reached the supervisor: %+v", snap.Supervisor)
	}
	if snap.Supervisor.Retries+snap.Supervisor.Degraded == 0 {
		t.Fatalf("supervisor absorbed nothing: %+v", snap.Supervisor)
	}
	if snap.Supervisor.GaveUp != 0 {
		t.Fatalf("supervisor gave up under a recoverable plan: %+v", snap.Supervisor)
	}
	// Differential check: the quotient engine (different kernel, different
	// memo, also running under the fault plan) must agree exactly with the
	// faulted enum build.
	code2, body2, _ := get(t, ts.URL+"/v1/census?n=15&rule=threshold:2&engine=quotient&tag=faulty")
	if code2 != http.StatusOK {
		t.Fatalf("quotient build under fault plan got %d: %s", code2, body2)
	}
	re, rq := decode(t, body), decode(t, body2)
	if re.Census == nil || rq.Census == nil || *re.Census != *rq.Census {
		t.Fatalf("faulted enum and quotient censuses disagree:\n%+v\nvs\n%+v", re.Census, rq.Census)
	}
}

// TestDrainFinishesInFlightAndFlushes: Drain waits for in-flight requests
// (zero dropped), flushes the cache to the spill directory, and flips the
// health probes; post-drain queries are refused.
func TestDrainFinishesInFlightAndFlushes(t *testing.T) {
	plan, err := faultinject.Parse("delay:0=200msx16")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Faults: plan, SpillDir: dir})
	type result struct {
		code int
		body []byte
	}
	resCh := make(chan result, 1)
	go func() {
		code, body, _ := get(t, ts.URL+"/v1/census?n=14&rule=xor&engine=enum&tag=in-flight")
		resCh <- result{code, body}
	}()
	// Wait for the request to be in flight.
	for i := 0; s.inflightN.Load() == 0; i++ {
		if i > 400 {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := s.Drain(ctx)
	if rep.Dropped != 0 {
		t.Fatalf("drain dropped %d in-flight requests", rep.Dropped)
	}
	if rep.FlushError != "" || !rep.CacheFlushed {
		t.Fatalf("drain flush failed: %+v", rep)
	}
	res := <-resCh
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d during drain: %s", res.code, res.body)
	}
	// The drained cache reached disk.
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt.gz"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files after drain flush: %v %v", files, err)
	}
	// New work is refused; probes report draining.
	if code, _, _ := get(t, ts.URL+"/v1/analytic?n=50"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain query got %d, want 503", code)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz got %d, want 503", code)
	}
}

// TestEnginesAgreeAndVerifyClaimsHold: the quotient and enum engines
// return identical censuses for the same query (only the engine marker
// differs), and /v1/verify's paper claims hold for majority on a ring.
func TestEnginesAgreeAndVerifyClaimsHold(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, enumBody, _ := get(t, ts.URL+"/v1/census?n=12&rule=majority&engine=enum")
	_, quoBody, _ := get(t, ts.URL+"/v1/census?n=12&rule=majority&engine=quotient")
	re, rq := decode(t, enumBody), decode(t, quoBody)
	if re.Census == nil || rq.Census == nil || *re.Census != *rq.Census {
		t.Fatalf("engines disagree:\nenum:     %+v\nquotient: %+v", re.Census, rq.Census)
	}
	code, body, _ := get(t, ts.URL+"/v1/verify?n=12&rule=majority")
	if code != http.StatusOK {
		t.Fatalf("verify: %d %s", code, body)
	}
	rv := decode(t, body)
	if len(rv.Claims) == 0 {
		t.Fatalf("verify returned no claims: %s", body)
	}
	for _, c := range rv.Claims {
		if c.Holds == nil || !*c.Holds {
			t.Fatalf("claim %q does not hold: %s", c.Name, body)
		}
	}
	// Sequential semantics: threshold interleavings are acyclic.
	code, body, _ = get(t, ts.URL+"/v1/verify?n=10&rule=majority&semantics=sequential")
	if code != http.StatusOK {
		t.Fatalf("sequential verify: %d %s", code, body)
	}
	for _, c := range decode(t, body).Claims {
		if c.Holds == nil || !*c.Holds {
			t.Fatalf("sequential claim %q does not hold: %s", c.Name, body)
		}
	}
}

// TestOrbitAtSixtyFourNodes: the orbit cap admits n = 64, and a 64-node
// orbit answers 200 with the trace automaton.Converge computes.
func TestOrbitAtSixtyFourNodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, x0 := range []uint64{0xF0F0F0F00FF00FF1, 0xAAAAAAAAAAAAAAAA, ^uint64(0)} {
		code, body, _ := get(t, fmt.Sprintf("%s/v1/orbit?n=64&rule=threshold:2&r=2&x0=%d", ts.URL, x0))
		if code != http.StatusOK {
			t.Fatalf("x0=%#x: %d %s", x0, code, body)
		}
		got := decode(t, body).Orbit
		a := automaton.MustNew(space.Ring(64, 2), rule.Threshold{K: 2})
		want := a.Converge(config.FromIndex(x0, 64), 1<<20)
		if got == nil || got.X0 != x0 || got.Outcome != want.Outcome.String() || got.Transient != want.Transient ||
			got.Period != want.Period || got.FinalIndex != want.Final.Index() || got.Final != want.Final.String() {
			t.Errorf("x0=%#x: orbit %+v, Converge %+v", x0, got, want)
		}
	}
}

// TestOrbitAndBasinsEndpoints: orbit traces classify per Proposition 1,
// and basin listings are sorted, bounded by top, and streamable as NDJSON.
func TestOrbitAndBasinsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := get(t, ts.URL+"/v1/orbit?n=9&rule=majority&x0=37")
	if code != http.StatusOK {
		t.Fatalf("orbit: %d %s", code, body)
	}
	ro := decode(t, body)
	if ro.Orbit == nil || ro.Orbit.Period < 1 || ro.Orbit.Period > 2 {
		t.Fatalf("majority orbit period outside {1,2}: %s", body)
	}

	code, body, _ = get(t, ts.URL+"/v1/basins?n=10&rule=majority&top=3")
	if code != http.StatusOK {
		t.Fatalf("basins: %d %s", code, body)
	}
	rb := decode(t, body)
	if rb.Basins == nil || rb.Basins.Listed > 3 || len(rb.Basins.Basins) != rb.Basins.Listed {
		t.Fatalf("basin listing malformed: %s", body)
	}
	var sum uint64
	for i, b := range rb.Basins.Basins {
		if i > 0 && b.Size > rb.Basins.Basins[i-1].Size {
			t.Fatalf("basins not sorted by size: %s", body)
		}
		sum += b.Size
	}
	if sum == 0 || sum > 1<<10 {
		t.Fatalf("basin sizes out of range (sum %d): %s", sum, body)
	}

	// Streamed rendering of the same key: NDJSON rows plus a summary line.
	code, stream, hdr := get(t, ts.URL+"/v1/basins?n=10&rule=majority&top=3&stream=1")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("stream: %d %q", code, hdr.Get("Content-Type"))
	}
	lines := bytes.Split(bytes.TrimSpace(stream), []byte("\n"))
	if len(lines) != rb.Basins.Listed+1 {
		t.Fatalf("stream has %d lines, want %d basins + 1 summary", len(lines), rb.Basins.Listed)
	}
	var row BasinDTO
	if err := json.Unmarshal(lines[0], &row); err != nil || row.Size != rb.Basins.Basins[0].Size {
		t.Fatalf("first stream row %s does not match listing (%v)", lines[0], err)
	}
}

// TestReadyzFlipsUnderQueuePressure: readiness reports overloaded while
// the admission queue is saturated and recovers afterwards.
func TestReadyzFlipsUnderQueuePressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBuilds: 1, QueueDepth: 1})
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("fresh server not ready")
	}
	// Saturate: hold the slot and fill the queue directly.
	rel1, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(context.Background())
	qdone := make(chan struct{})
	go func() {
		defer close(qdone)
		if rel, err := s.adm.Acquire(qctx); err == nil {
			rel()
		}
	}()
	for i := 0; !s.adm.Saturated(); i++ {
		if i > 400 {
			t.Fatal("queue never saturated")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz ready while overloaded")
	}
	qcancel()
	<-qdone
	rel1()
	if code, _, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz did not recover")
	}
	if s.adm.ShedWait() != 1 {
		t.Fatalf("queued waiter cancellation not counted: %d", s.adm.ShedWait())
	}
}

// TestBadRequestsGet400: malformed queries are refused up front.
func TestBadRequestsGet400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{
		"/v1/census",                       // n missing
		"/v1/census?n=0",                   // n < 1
		"/v1/census?n=8&rule=nope",         // unknown rule
		"/v1/census?n=8&space=nope",        // unknown space
		"/v1/census?n=8&semantics=diag",    // unknown semantics
		"/v1/census?n=8&engine=warp",       // unknown engine
		"/v1/orbit?n=8&x0=4096",            // x0 out of space
		"/v1/orbit?n=70",                   // over the orbit cap
		"/v1/basins?n=8&top=0",             // bad top
		"/v1/census?n=8&timeout=-3s",       // bad timeout
		"/v1/analytic?n=50&space=complete", // analytic needs a ring
	} {
		if code, body, _ := get(t, ts.URL+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", q, code, body)
		}
	}
}

// TestSingleflightPanicBecomesError: a panicking build is converted into
// an error for every waiter instead of crashing the process.
func TestSingleflightPanicBecomesError(t *testing.T) {
	var f Flight
	_, err := f.Do(context.Background(), "k", func() ([]byte, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not surfaced as error: %v", err)
	}
	// The key is released for the next build.
	got, err := f.Do(context.Background(), "k", func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(got) != "ok" {
		t.Fatalf("key poisoned after panic: %s, %v", got, err)
	}
}
