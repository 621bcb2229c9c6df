package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced call: a named interval with the span that caused it
// and the request it belongs to (0 outside serve).
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // -1 for a root span
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory and writes them out when the phase ends.
// A disabled tracer records nothing: begin returns -1 and end ignores it,
// so the timed code paths are the same with tracing off, minus the
// bookkeeping.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a finished span whose interval was measured elsewhere (the
// serve handler wrapper and the load generator time requests themselves).
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of it that its child spans cover
// (overlapping children are merged, and clipped to the parent).
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// spanFile names the span dump of one phase process.
func spanFile(dir, workload string, seed int64, phase string, rep int) string {
	return fmt.Sprintf("%s/spans-%s-%d-%s-%d.jsonl", dir, workload, seed, phase, rep)
}
