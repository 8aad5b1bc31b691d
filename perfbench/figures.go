package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mcdvfs/internal/experiments"
	"mcdvfs/internal/workload"
)

// figures regenerates every experiment of the paper, as `mcdvfs all`
// does, on a fresh Lab per pass, and checks each pass's output against
// the pinned digest. One pass is one op.
type figures struct {
	limit   time.Duration
	digest  string
	runners []experiments.Runner

	// Traced passes: counts from the Lab hooks and the pass spans.
	passes  int
	flights atomic.Int64
	hits    atomic.Int64
	columns atomic.Int64
}

func newFigures(o options, wc workloadConfig) *figures {
	f := &figures{
		limit:   time.Duration(wc.LatencyLimitMS * float64(time.Millisecond)),
		digest:  wc.Digest,
		runners: experiments.Runners(),
	}
	if o.corrupt {
		f.digest = "0" + f.digest[1:]
	}
	return f
}

// setup runs one untimed warm-up pass.
func (f *figures) setup(context.Context) error {
	_, err := f.pass(nil, 0)
	return err
}

// pass regenerates every experiment into a digest, exactly as the
// `mcdvfs all` command writes them, and reports whether it matched.
func (f *figures) pass(rec *recorder, req int64) (bool, error) {
	var opts []experiments.Option
	var current atomic.Int64 // span of the experiment running now
	if rec != nil {
		opts = append(opts,
			experiments.WithCollectSpan(func(bench, space string) func() {
				f.flights.Add(1)
				_, end := rec.begin("trace.collect."+space, current.Load(), req)
				return end
			}),
			experiments.WithGridObserver(func(ev experiments.GridEvent) {
				if ev.Kind == experiments.GridHit {
					f.hits.Add(1)
				}
			}),
			experiments.WithCollectProgress(func(int, int) { f.columns.Add(1) }),
		)
	}
	lab, err := experiments.NewLab(opts...)
	if err != nil {
		return false, err
	}
	h := sha256.New()
	for _, r := range f.runners {
		fmt.Fprintf(h, "### %s — %s\n\n", r.ID, r.Description)
		end := func() {}
		if rec != nil {
			var id int64
			id, end = rec.begin("experiments."+r.ID, req, req)
			current.Store(id)
		}
		err := r.Run(lab, h)
		end()
		if err != nil {
			return false, fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil)) == f.digest, nil
}

func (f *figures) measure(ctx context.Context, d time.Duration, minOps int, rec *recorder) (*tally, time.Duration, error) {
	t := &tally{limit: f.limit}
	start := time.Now()
	for t.attempted < max(minOps, 1) || time.Since(start) < d {
		var req int64
		end := func() {}
		if rec != nil {
			req, end = rec.begin("figures.pass", 0, 0)
			f.passes++
		}
		t0 := time.Now()
		ok, err := f.pass(rec, req)
		lat := time.Since(t0)
		end()
		if err != nil {
			return nil, 0, err
		}
		t.add(outcome{status: 200, latency: lat, mismatch: !ok})
	}
	return t, time.Since(start), nil
}

// check has nothing to replay: every pass was checked as it finished.
func (f *figures) check(context.Context) (int, error) { return 0, nil }

func (f *figures) probeInputs() []string { return workload.HeadlineNames() }

func (f *figures) close() {}

// layers reports the Lab's counts per pass, the share of pass time spent
// inside collection flights, and each experiment's mean time.
func (f *figures) layers(rec *recorder, m metrics) {
	spans := rec.all()
	passes := float64(f.passes)
	var passNS, collectNS int64
	expNS := make(map[string]int64)
	for _, s := range spans {
		switch {
		case s.Name == "figures.pass":
			passNS += s.dur()
		case strings.HasPrefix(s.Name, "trace.collect."):
			collectNS += s.dur() // experiments run one at a time, so flights never overlap
		case strings.HasPrefix(s.Name, "experiments."):
			expNS[s.Name] += s.dur()
		}
	}
	m.set("experiments.collect_share", float64(collectNS)/float64(passNS), "1")
	m.set("experiments.flights", float64(f.flights.Load())/passes, "count")
	m.set("experiments.grid_hits", float64(f.hits.Load())/passes, "count")
	m.set("experiments.columns", float64(f.columns.Load())/passes, "count")
	for _, r := range f.runners {
		m.set("experiments."+r.ID+"_ms", float64(expNS["experiments."+r.ID])/passes/1e6, "ms")
	}
	zeroLayers(m, "serve", "cluster")
}
