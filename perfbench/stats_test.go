package main

import (
	"errors"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if got, err := percentile(xs, 90); err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (10 samples beyond)", got, err)
	}
	if _, err := percentile(xs, 91); err == nil {
		t.Fatal("p91 of 100 samples leaves 9 beyond it; want a refusal")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it; want a refusal")
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 90 {
		t.Fatalf("p50 of 100..81 = %v, %v; want 90", got, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestMinSamplesIsTheFirstAnsweredSize(t *testing.T) {
	for _, p := range []float64{50, 75, 90, 99} {
		n := minSamples(p)
		xs := make([]float64, n)
		if _, err := percentile(xs, p); err != nil {
			t.Errorf("p%g of minSamples=%d samples: %v", p, n, err)
		}
		if _, err := percentile(xs[:n-1], p); err == nil {
			t.Errorf("p%g of %d samples answered; minSamples says %d are needed", p, n-1, n)
		}
	}
	if n := minSamples(99); n != 1000 {
		t.Errorf("minSamples(99) = %d, want 1000", n)
	}
}

func TestTallyCountsGoodput(t *testing.T) {
	tl := &tally{limit: 100 * time.Millisecond}
	fast, slow := 20*time.Millisecond, 300*time.Millisecond
	for _, o := range []outcome{
		{status: 200, latency: fast},
		{status: 200, latency: 100 * time.Millisecond}, // at the limit still counts
		{status: 200, latency: slow},                   // answered, but misses the limit
		{status: 429, latency: fast},                   // refused: never retried
		{status: 500, latency: fast},
		{err: errors.New("connection reset"), latency: fast},
		{status: 200, latency: fast, mismatch: true}, // wrong answer
	} {
		tl.add(o)
	}
	if tl.attempted != 7 || tl.failed != 4 || tl.good != 2 || tl.mismatch != 1 {
		t.Fatalf("attempted %d failed %d good %d mismatch %d; want 7 4 2 1",
			tl.attempted, tl.failed, tl.good, tl.mismatch)
	}
	if len(tl.latencyMS) != 3 {
		t.Fatalf("latencies of %d ops recorded; want the 3 that succeeded", len(tl.latencyMS))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a: 10..50 counts once
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // only 90..100 lies inside root
		{Name: "d", ID: 5, Parent: 3, Start: 25, End: 45},  // grandchild: b's time, not root's
		{Name: "other", ID: 6, Start: 200, End: 260},
	}
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20, 6: 60}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}
