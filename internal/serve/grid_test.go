package serve

// The /v1/grid response path: cached coarse grids are answered with the
// Lab's encoded bytes in one write with a Content-Length, every other grid
// is streamed, both byte-identical to trace.Grid.WriteJSON; an encode
// failure is a 500; and no inline workload can pin an admission slot.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"mcdvfs/internal/trace"
)

// gridBytes is what WriteJSON makes of a grid.
func gridBytes(t *testing.T, g *trace.Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGridBodiesMatchWriteJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, space := range []string{"coarse", "fine"} {
		_, first := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk", Space: space})
		resp, cached := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk", Space: space})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", space, resp.StatusCode, cached)
		}
		g, ok := s.lab.PeekGrid("gobmk", space)
		if !ok {
			t.Fatalf("%s grid not cached", space)
		}
		want := gridBytes(t, g)
		if !bytes.Equal(first, want) || !bytes.Equal(cached, want) {
			t.Errorf("%s: bodies of %d and %d bytes differ from WriteJSON's %d", space, len(first), len(cached), len(want))
		}
		if space == "coarse" {
			if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) > 0 {
				t.Errorf("cached coarse grid: Content-Length %d, transfer encoding %v; want %d, none",
					resp.ContentLength, resp.TransferEncoding, len(want))
			}
		}
	}
}

// TestGridCountersUnchanged: the encoded coarse path and the streamed fine
// path count requests, hits and collections identically.
func TestGridCountersUnchanged(t *testing.T) {
	for _, space := range []string{"coarse", "fine"} {
		_, ts := newTestServer(t, Config{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "milc", Space: space})
			}()
		}
		wg.Wait()
		postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "milc", Space: space})
		for name, want := range map[string]int64{
			"mcdvfsd_grid_requests_total":    9,
			"mcdvfsd_grid_cache_hits_total":  8,
			"mcdvfsd_grid_collections_total": 1,
		} {
			if got := metricValue(t, ts, name); got != want {
				t.Errorf("%s: %s = %d, want %d", space, name, got, want)
			}
		}
	}
}

// TestEvictionDropsGridBytes: an LRU eviction releases the encoded bytes
// with the grid, and the recollected grid serves the same body.
func TestEvictionDropsGridBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBenchmarks: 1})
	_, first := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"})
	kept, ok := s.lab.PeekGridJSON("gobmk")
	if !ok {
		t.Fatal("gobmk bytes not cached")
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(&kept[0], func(*byte) { close(freed) })
	kept = nil

	postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "milc"}) // evicts gobmk
	if _, ok := s.lab.PeekGridJSON("gobmk"); ok {
		t.Fatal("evicted benchmark still has cached bytes")
	}
	released := false
	for i := 0; i < 20 && !released; i++ {
		runtime.GC()
		select {
		case <-freed:
			released = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !released {
		t.Error("evicted grid's bytes are still reachable")
	}
	if _, again := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"}); !bytes.Equal(again, first) {
		t.Error("recollected grid serves a different body")
	}
	if got := metricValue(t, ts, "mcdvfsd_grid_collections_total"); got != 3 {
		t.Errorf("collections = %d, want 3", got)
	}
}

// TestGridEncodeErrorIs500 plants a grid holding NaN in the cache: it
// cannot be encoded, so both response paths must answer 500, not a 200
// with an empty or truncated body.
func TestGridEncodeErrorIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, space := range []string{"coarse", "fine"} {
		settings := s.lab.CoarseSpace().Settings()
		if space == "fine" {
			settings = s.lab.FineSpace().Settings()
		}
		row := make([]trace.Measurement, len(settings))
		for k := range row {
			row[k] = trace.Measurement{TimeNS: 1, CPI: 1}
		}
		row[3].MPKI = math.NaN()
		g := &trace.Grid{Benchmark: "gobmk", SampleInstr: 1, Settings: settings, Data: [][]trace.Measurement{row}}
		if !s.lab.SeedGrid("gobmk", space, g) {
			t.Fatalf("%s: seeding refused", space)
		}
		resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk", Space: space})
		var out map[string]string
		if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(data, &out) != nil || out["error"] == "" {
			t.Errorf("%s: status %d, body %q; want 500 with an error", space, resp.StatusCode, data)
		}
	}
	if got := metricValue(t, ts, "mcdvfsd_responses_5xx_total"); got != 2 {
		t.Errorf("5xx responses = %d, want 2", got)
	}
}

// TestOversizedWorkloadLeavesPoolFree is the reproduced wedge: an inline
// workload of repeat 2^62 × 2 samples overflowed the sample count and
// panicked Realize while holding an admission slot, and PoolSize such
// requests left every later collection shedding 429. It must be refused
// with 400, and the pool must stay free.
func TestOversizedWorkloadLeavesPoolFree(t *testing.T) {
	const poolSize = 2
	_, ts := newTestServer(t, Config{PoolSize: poolSize, QueueDepth: -1})
	workload := func(repeat int) json.RawMessage {
		return json.RawMessage(`{"name":"w","repeat":` + strconv.Itoa(repeat) +
			`,"phases":[{"name":"p","samples":2,"base_cpi":1,"mpki":5,"mlp":1.5,"row_hit_rate":0.5}]}`)
	}
	for i := 0; i < 2*poolSize+1; i++ {
		if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Workload: workload(1 << 62)}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400 (%s)", i, resp.StatusCode, data)
		}
	}
	if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Workload: workload(3)}); resp.StatusCode != http.StatusOK {
		t.Fatalf("normal workload after the repro: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, ts, "/v1/grid", GridRequest{Benchmark: "gobmk"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("named grid after the repro: status %d: %s", resp.StatusCode, data)
	}
	if got := metricValue(t, ts, "mcdvfsd_collections_running"); got != 0 {
		t.Errorf("collections running = %d after every request finished, want 0", got)
	}
}
