package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

func testConfig(t *testing.T, name string) workloadConfig {
	t.Helper()
	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		t.Fatal(err)
	}
	wc, ok := cfg.Workloads[name]
	if !ok {
		t.Fatalf("workloads.json has no %s", name)
	}
	return wc
}

// A pass checked against a corrupted digest must count as a wrong answer.
func TestFiguresCorruptDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two passes of every experiment")
	}
	wc := testConfig(t, "figures")
	for _, corrupt := range []bool{false, true} {
		f := newFigures(options{corrupt: corrupt}, wc)
		tl, _, err := f.measure(context.Background(), 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := tl.mismatch == 1; got != corrupt {
			t.Errorf("corrupt=%v: %d of %d passes mismatched", corrupt, tl.mismatch, tl.attempted)
		}
	}
}

// The serving check passes against the true answers and fails once one
// expected answer is corrupted.
func TestServingCorruptAnswerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a daemon and collects every headline grid")
	}
	wc := testConfig(t, "serve_hot")
	wc.WarmupOps = 0
	s, err := newServing(options{seed: 3}, wc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ctx := context.Background()
	if err := s.setup(ctx); err != nil {
		t.Fatal(err)
	}
	tl, _, err := s.measure(ctx, 300*time.Millisecond, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d of %d requests failed", tl.failed, tl.attempted)
	}
	if bad, err := s.check(ctx); bad != 0 || err != nil {
		t.Fatalf("check against the true answers: %d wrong, %v", bad, err)
	}
	s.corrupt = true
	if bad, err := s.check(ctx); bad == 0 && err == nil {
		t.Fatal("check passed with a corrupted expected answer")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	wc := testConfig(t, "cluster_churn")
	a, err := newGenerator(wc, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newGenerator(wc, 5)
	c, _ := newGenerator(wc, 6)
	same, differ := true, false
	for i := 0; i < 200; i++ {
		qa, qb, qc := a.next(), b.next(), c.next()
		same = same && qa.key == qb.key && qa.entry == qb.entry
		differ = differ || qa.key != qc.key
	}
	if !same || !differ {
		t.Fatalf("same seed gives the same stream: %v; another seed differs: %v", same, differ)
	}
}
