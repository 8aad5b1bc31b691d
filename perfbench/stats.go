package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 300 requests would rest on three
// observations and move with every scheduling hiccup.
const minBeyond = 10

// setupRuns is how many fresh processes measure set-up time in one run;
// setup_s is their median.
const setupRuns = 5

// percentile returns the p-th percentile of xs by nearest rank. It refuses
// a percentile that fewer than minBeyond samples lie beyond.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("p%g of %d samples is undefined", p, n)
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it; need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// minSamples is the fewest samples for which percentile(xs, p) answers. A
// timed phase runs on past its deadline until it has that many ops, so a
// slow machine stretches the run instead of failing it.
func minSamples(p float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(p*float64(n)/100)) < minBeyond {
		n++
	}
	return n
}

// median of a small set of repeated measurements (set-up runs), where the
// percentile refusal rule does not apply: it is the middle value, not a
// tail.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// outcome is one timed operation as the client saw it.
type outcome struct {
	err      error // transport error, or the op itself failed
	status   int   // HTTP status; 200 for a successful figures pass
	latency  time.Duration
	mismatch bool // the answer differed from the expected one
}

// tally counts a phase's operations. An op fails when it errs, answers
// anything but 200 (a 429 included: the benchmark never retries) or
// returns a wrong answer; a successful op is good only if it also meets
// the workload's latency limit. Latency percentiles cover successful ops.
type tally struct {
	limit     time.Duration
	attempted int
	failed    int
	good      int
	mismatch  int
	latencyMS []float64
}

func (t *tally) add(o outcome) {
	t.attempted++
	if o.mismatch {
		t.mismatch++
	}
	if o.err != nil || o.status != 200 || o.mismatch {
		t.failed++
		return
	}
	t.latencyMS = append(t.latencyMS, float64(o.latency)/float64(time.Millisecond))
	if o.latency <= t.limit {
		t.good++
	}
}

// span is one traced call into a layer. IDs are unique within a run;
// Parent 0 marks a root, and spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once the run ends.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

// begin opens a span and returns its ID and the func that closes it.
func (r *recorder) begin(name string, parent, req int64) (int64, func()) {
	s := span{Name: name, ID: r.newID(), Parent: parent, Req: req, Start: r.now()}
	return s.ID, func() {
		s.End = r.now()
		r.add(s)
	}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children count once, and a child reaching outside its parent counts only
// inside it.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}
