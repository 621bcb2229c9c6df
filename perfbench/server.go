package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// The server under test runs in its own process, so the load generator
// never waits for a processor the server's builds hold: on two cores a
// generator sharing the server's scheduler ran up to milliseconds late.

// serverDone is what the client sends the server process when the ladder
// is over: the hot keys and every distinct URL of the run, for the
// per-layer timings of the parse, cache and encode layers.
type serverDone struct {
	Hot  []string `json:"hot"`
	URLs []string `json:"urls"`
}

// serverReport is the server process's last line of output.
type serverReport struct {
	Snapshot  serve.MetricsSnapshot `json:"snapshot"`
	Handler   [][3]int64            `json:"handler"` // request id, start and end (Unix ns)
	Layers    map[string]float64    `json:"layers"`
	PeakRSSMB float64               `json:"peak_rss_mb"`
	Errors    []string              `json:"errors,omitempty"`
}

// runServerProc serves serve.New's handler on a loopback port over
// cleartext HTTP/2 until its standard input delivers a serverDone, then
// reports and exits.
func runServerProc(env *phaseEnv) error {
	srv, err := serve.New(serve.Config{QueueDepth: serveQueueDepth})
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var spans [][3]int64
	var handler http.Handler = srv.Handler()
	if env.tr.on {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			t1 := time.Now()
			id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
			mu.Lock()
			spans = append(spans, [3]int64{id, t0.UnixNano(), t1.UnixNano()})
			mu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler, Protocols: h2c()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	if _, err := fmt.Printf("%s\n", ln.Addr()); err != nil {
		return err
	}
	var done serverDone
	if err := json.NewDecoder(os.Stdin).Decode(&done); err != nil {
		return fmt.Errorf("reading the client's done message: %w", err)
	}
	rep := serverReport{Snapshot: srv.Snapshot(), Layers: map[string]float64{}}
	mu.Lock()
	rep.Handler = spans
	mu.Unlock()
	if env.tr.on {
		rep.Errors = layerTimings(srv, done, rep.Layers)
	}
	rep.PeakRSSMB = peakRSSMB()
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// serveQueueDepth lets every cold build queue for a slot instead of being
// shed: the benchmark counts any non-200 answer as a failure, and with
// requests multiplexed over HTTP/2 the default queue of 8 overflows at
// the top of the ladder.
const serveQueueDepth = 4096

func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// layerTimings times serve.ParseRequest + Request.Key over the run's URLs,
// srv.Cache().Get over the hot keys, and json.Marshal of the hot keys'
// responses, after the ladder, into layers (medians per call, in µs).
func layerTimings(srv *serve.Server, done serverDone, layers map[string]float64) []string {
	var errs []string
	parse := func(p string) (*serve.Request, time.Duration, error) {
		hr, err := http.NewRequest(http.MethodGet, "http://bench"+p, nil)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		pr, err := serve.ParseRequest(strings.TrimPrefix(hr.URL.Path, "/v1/"), hr, time.Minute)
		if err == nil {
			_ = pr.Key()
		}
		return pr, time.Since(t0), err
	}
	var parseT, getT, encT []float64
	for _, p := range done.URLs {
		for rep := 0; rep < 5; rep++ {
			_, dt, err := parse(p)
			if err != nil {
				errs = append(errs, fmt.Sprintf("parse %s: %v", p, err))
				break
			}
			parseT = append(parseT, dt.Seconds())
		}
	}
	for _, p := range done.Hot {
		pr, _, err := parse(p)
		if err != nil {
			errs = append(errs, fmt.Sprintf("parse %s: %v", p, err))
			continue
		}
		key := pr.Key()
		body, _ := srv.Cache().Get(key)
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			errs = append(errs, fmt.Sprintf("hot key %s: cached body: %v", p, err))
			continue
		}
		for rep := 0; rep < 20; rep++ {
			t0 := time.Now()
			srv.Cache().Get(key)
			getT = append(getT, time.Since(t0).Seconds())
			t0 = time.Now()
			_, err := json.Marshal(&resp)
			encT = append(encT, time.Since(t0).Seconds())
			if err != nil {
				errs = append(errs, fmt.Sprintf("encode %s: %v", p, err))
				break
			}
		}
	}
	layers["serve.parse_key_us"] = median(parseT) * 1e6
	layers["serve.cache_get_us"] = median(getT) * 1e6
	layers["serve.encode_us"] = median(encT) * 1e6
	return errs
}

// serverProc is the client's handle on the server process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

// startServer launches the server process and reads its address.
func startServer(env *phaseEnv) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-phase", "server", "-workload", env.workload, "-seed", itoa(env.seed),
		"-trace", map[bool]string{false: "0", true: "1"}[env.tr.on], "-dir", env.dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	line, err := p.out.ReadString('\n')
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("server process did not report its address: %w", err)
	}
	p.addr = strings.TrimSpace(line)
	return p, nil
}

// finish hands the server its done message and collects its report.
func (p *serverProc) finish(done serverDone) (*serverReport, error) {
	if err := json.NewEncoder(p.stdin).Encode(done); err != nil {
		p.kill()
		return nil, err
	}
	p.stdin.Close()
	line, err := p.out.ReadString('\n')
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("server process report: %w", err)
	}
	if err := p.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("server process: %w", err)
	}
	var rep serverReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return nil, fmt.Errorf("server process report: %w", err)
	}
	return &rep, nil
}

// kill stops the server process and waits for it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}
