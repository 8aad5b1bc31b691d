package experiments

// Tests for the coarse grid's cached JSON (Lab.GridJSON): the bytes equal
// trace.Grid.WriteJSON, are encoded once per cache entry however many
// requests race for them, leave with the entry, and are accounted exactly
// like GridContext requests.

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestGridJSONMatchesWriteJSON(t *testing.T) {
	l, _ := countingLab(t, 0)
	body, err := l.GridJSON(context.Background(), "gobmk")
	if err != nil {
		t.Fatal(err)
	}
	g, err := l.Grid("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := g.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("GridJSON (%d bytes) differs from WriteJSON (%d bytes)", len(body), want.Len())
	}
	peeked, ok := l.PeekGridJSON("gobmk")
	if !ok || &peeked[0] != &body[0] {
		t.Error("PeekGridJSON did not return the entry's encoded bytes")
	}
	if _, ok := l.PeekGridJSON("milc"); ok {
		t.Error("PeekGridJSON reported an uncached benchmark")
	}
}

// TestGridJSONEncodesOncePerEntry: 32 concurrent first requests share one
// collection and one encode — every caller holds the same bytes.
func TestGridJSONEncodesOncePerEntry(t *testing.T) {
	const callers = 32
	l, counts := countingLab(t, 20*time.Millisecond)
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := l.GridJSON(context.Background(), "gobmk")
			if err != nil {
				t.Error(err)
			}
			bodies[i] = b
		}()
	}
	wg.Wait()
	if n := flightCount(counts, "gobmk/coarse"); n != 1 {
		t.Errorf("%d collections for %d concurrent requests, want 1", n, callers)
	}
	for i, b := range bodies {
		if len(b) == 0 || &b[0] != &bodies[0][0] {
			t.Fatalf("caller %d got its own encode, want the entry's one shared encoding", i)
		}
	}
}

// TestGridJSONDroppedWithEntry: after Forget no encoded bytes stay
// reachable, and the recollected grid is encoded afresh.
func TestGridJSONDroppedWithEntry(t *testing.T) {
	l, counts := countingLab(t, 0)
	old, err := l.GridJSON(context.Background(), "gobmk")
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(&old[0], func(*byte) { close(freed) })
	want := bytes.Clone(old)
	old = nil

	if !l.Forget("gobmk") {
		t.Fatal("Forget reported nothing cached")
	}
	if _, ok := l.PeekGridJSON("gobmk"); ok {
		t.Fatal("encoded bytes still served after Forget")
	}
	fresh, err := l.GridJSON(context.Background(), "gobmk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, want) {
		t.Error("recollected grid encodes differently")
	}
	if n := flightCount(counts, "gobmk/coarse"); n != 2 {
		t.Errorf("%d collections across a Forget, want 2", n)
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the forgotten entry's bytes are still reachable")
}

// TestGridJSONEventsMatchGridContext: the encoded path reports the same
// hit and collect events as the grid path for the same request pattern,
// so cache metrics read the same whichever one a server uses.
func TestGridJSONEventsMatchGridContext(t *testing.T) {
	pattern := func(get func(*Lab) error) (hits, collects int64) {
		var tally eventTally
		l, err := NewLab(WithGridObserver(tally.observe))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := get(l); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for _, forget := range []bool{false, true} {
			if forget {
				l.Forget("gobmk")
			}
			if err := get(l); err != nil {
				t.Fatal(err)
			}
		}
		return tally.hits.Load(), tally.collects.Load()
	}
	jsonHits, jsonCollects := pattern(func(l *Lab) error {
		_, err := l.GridJSON(context.Background(), "gobmk")
		return err
	})
	gridHits, gridCollects := pattern(func(l *Lab) error {
		_, err := l.GridContext(context.Background(), "gobmk")
		return err
	})
	if jsonHits != gridHits || jsonCollects != gridCollects {
		t.Errorf("GridJSON events: %d hits, %d collects; GridContext: %d hits, %d collects",
			jsonHits, jsonCollects, gridHits, gridCollects)
	}
	if gridHits != 8 || gridCollects != 2 {
		t.Errorf("GridContext events: %d hits, %d collects, want 8 and 2", gridHits, gridCollects)
	}
}
