// Package experiments reproduces every figure of the paper's evaluation
// (Figures 2-12 — the paper has no numbered tables) as a runnable
// experiment over the mcdvfs simulator, plus the governor comparison the
// paper's Section VII implies. Each experiment returns structured results
// and a rendered text table; the bench harness at the repository root calls
// the same runners.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"mcdvfs/internal/core"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// Lab owns the simulated platform and caches collected grids, since grid
// collection is the expensive step shared by every experiment. It is safe
// for concurrent use: grids live in a sharded singleflight cache, so N
// goroutines requesting the same benchmark trigger exactly one collection
// and requests for different benchmarks proceed independently.
type Lab struct {
	sys    *sim.System
	cfg    sim.Config
	coarse *freq.Space
	fine   *freq.Space

	workers  int    // Collect worker-pool size; 0 means GOMAXPROCS
	cacheDir string // persistent grid cache directory; "" disables

	observer func(GridEvent)                  // grid-cache outcome hook; nil disables
	gate     CollectGate                      // admission control around collections; nil admits all
	progress func(done, total int)            // per-column collection progress; nil disables
	span     func(bench, space string) func() // brackets every owned grid flight; nil disables

	coarseGrids *gridCache
	fineGrids   *gridCache

	mu           sync.Mutex
	analyses     map[string]*core.Analysis
	fineAnalyses map[string]*core.Analysis

	// collect is the collection entry point; tests swap it to count
	// flights or inject faults.
	collect func(ctx context.Context, sys *sim.System, b workload.Benchmark, space *freq.Space, opts trace.CollectOptions) (*trace.Grid, error)
}

// Option configures a Lab at construction.
type Option func(*Lab)

// WithWorkers bounds the collection worker pool. Zero or negative selects
// the default (GOMAXPROCS).
func WithWorkers(n int) Option { return func(l *Lab) { l.workers = n } }

// WithGridCacheDir enables the persistent grid cache: collected grids are
// written to dir as JSON keyed by (benchmark, space, platform-config hash)
// and reloaded instead of recollected by any later Lab with an identical
// configuration. Store failures are non-fatal; the in-memory result is
// used regardless.
func WithGridCacheDir(dir string) Option { return func(l *Lab) { l.cacheDir = dir } }

// GridEventKind classifies how one grid request was satisfied.
type GridEventKind int

const (
	// GridHit: the request joined an existing cache entry — a completed
	// grid, or an in-flight collection it coalesced onto.
	GridHit GridEventKind = iota
	// GridDiskLoad: the grid was reloaded from the persistent cache.
	GridDiskLoad
	// GridCollect: a full collection ran.
	GridCollect
)

// GridEvent describes one successfully satisfied grid request.
type GridEvent struct {
	Benchmark string
	Space     string // "coarse" or "fine"
	Kind      GridEventKind
}

// WithGridObserver registers fn to be called once per successful grid
// request with how it was satisfied. fn runs on the requesting goroutine
// (or the collecting one, for GridCollect/GridDiskLoad) and must be safe
// for concurrent use and fast — it sits on the grid hot path. The serve
// layer uses it to export cache and coalescing counters.
func WithGridObserver(fn func(GridEvent)) Option { return func(l *Lab) { l.observer = fn } }

// CollectGate admits one grid collection. Implementations return a release
// func to call when the collection finishes, or an error (e.g. a
// saturation sentinel) to fail the flight without collecting — the error
// propagates to every request coalesced onto the flight. A nil gate admits
// everything.
type CollectGate func(ctx context.Context) (release func(), err error)

// WithCollectGate bounds collections with an admission gate: the lab
// acquires the gate after the persistent cache misses and before the sweep
// starts, so cache hits and coalesced joins never consume a slot. The
// serve layer supplies its bounded worker pool here.
func WithCollectGate(g CollectGate) Option { return func(l *Lab) { l.gate = g } }

// WithCollectProgress registers a per-column progress hook forwarded to
// trace.CollectOptions.OnProgress for every collection this lab runs; fn
// must be safe for concurrent use.
func WithCollectProgress(fn func(done, total int)) Option {
	return func(l *Lab) { l.progress = fn }
}

// WithCollectSpan registers fn to bracket every grid-cache flight this
// lab owns: fn is called on the flight-owning goroutine when the flight
// starts (before the persistent-cache probe, the admission gate, and the
// collection itself) and the returned done func when the flight finishes,
// success or failure. Coalesced joiners never trigger fn — exactly one
// span per flight. The cluster router uses it to publish in-flight keys
// to peers, so a collection running anywhere in the cluster is
// discoverable while it runs.
func WithCollectSpan(fn func(bench, space string) (done func())) Option {
	return func(l *Lab) { l.span = fn }
}

// NewLab builds a lab over the default calibrated platform.
func NewLab(opts ...Option) (*Lab, error) {
	return NewLabWithConfig(sim.DefaultConfig(), opts...)
}

// NewLabWithConfig builds a lab over a custom platform configuration.
func NewLabWithConfig(cfg sim.Config, opts ...Option) (*Lab, error) {
	sys, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	l := &Lab{
		sys:          sys,
		cfg:          cfg,
		coarse:       freq.CoarseSpace(),
		fine:         freq.FineSpace(),
		coarseGrids:  newGridCache(),
		fineGrids:    newGridCache(),
		analyses:     make(map[string]*core.Analysis),
		fineAnalyses: make(map[string]*core.Analysis),
		collect:      trace.CollectContext,
	}
	for _, opt := range opts {
		opt(l)
	}
	return l, nil
}

// System returns the lab's simulator.
func (l *Lab) System() *sim.System { return l.sys }

// CoarseSpace returns the 70-setting space.
func (l *Lab) CoarseSpace() *freq.Space { return l.coarse }

// FineSpace returns the 496-setting space.
func (l *Lab) FineSpace() *freq.Space { return l.fine }

// Grid returns the coarse grid for a benchmark, collecting it on first use.
func (l *Lab) Grid(bench string) (*trace.Grid, error) {
	return l.GridContext(context.Background(), bench)
}

// GridContext is Grid with cancellation: a caller that joins an in-flight
// collection and is cancelled returns promptly with ctx's error while the
// collection itself completes for the remaining waiters; if the collecting
// caller is cancelled, the flight is abandoned and no partial grid stays
// cached.
func (l *Lab) GridContext(ctx context.Context, bench string) (*trace.Grid, error) {
	e, err := l.gridFor(ctx, l.coarseGrids, bench, l.coarse, "coarse")
	if err != nil {
		return nil, err
	}
	return e.g, nil
}

// GridJSON is GridContext for the coarse grid's JSON, byte-identical to
// trace.Grid.WriteJSON: the /v1/grid response body. The bytes belong to
// the cache entry the request resolved — encoded once, on the first
// request, and dropped with the entry by Forget — so a cached grid is
// served without re-encoding. Fine grids are never kept encoded: their
// JSON is seven times the size, and keeping it too raised the daemon's
// peak memory 1.7-fold (DESIGN.md §8). GridJSON emits the same GridEvents
// as GridContext. The returned slice is shared and must not be modified.
func (l *Lab) GridJSON(ctx context.Context, bench string) ([]byte, error) {
	e, err := l.gridFor(ctx, l.coarseGrids, bench, l.coarse, "coarse")
	if err != nil {
		return nil, err
	}
	return e.encoded()
}

// FineGrid returns the fine-step grid for a benchmark.
func (l *Lab) FineGrid(bench string) (*trace.Grid, error) {
	return l.FineGridContext(context.Background(), bench)
}

// FineGridContext is FineGrid with cancellation (see GridContext).
func (l *Lab) FineGridContext(ctx context.Context, bench string) (*trace.Grid, error) {
	e, err := l.gridFor(ctx, l.fineGrids, bench, l.fine, "fine")
	if err != nil {
		return nil, err
	}
	return e.g, nil
}

// gridFor resolves bench's cache entry in one space; on success the
// entry's grid is final.
func (l *Lab) gridFor(ctx context.Context, cache *gridCache, bench string, space *freq.Space, spaceName string) (*gridEntry, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	emit := func(kind GridEventKind) {
		if l.observer != nil {
			l.observer(GridEvent{Benchmark: bench, Space: spaceName, Kind: kind})
		}
	}
	e, joined, err := cache.do(ctx, bench, func() (*trace.Grid, error) {
		if l.span != nil {
			done := l.span(bench, spaceName)
			defer done()
		}
		var path string
		if l.cacheDir != "" {
			disk := diskCache{dir: l.cacheDir}
			path = disk.path(bench, spaceName, gridKeyHash(l.cfg, space))
			if g := disk.load(path, bench, space); g != nil {
				emit(GridDiskLoad)
				return g, nil
			}
		}
		if l.gate != nil {
			release, err := l.gate(ctx)
			if err != nil {
				return nil, fmt.Errorf("experiments: collecting %s %s: %w", spaceName, bench, err)
			}
			defer release()
		}
		g, err := l.collect(ctx, l.sys, b, space, trace.CollectOptions{Workers: l.workers, OnProgress: l.progress})
		if err != nil {
			return nil, fmt.Errorf("experiments: collecting %s %s: %w", spaceName, bench, err)
		}
		emit(GridCollect)
		if path != "" {
			_ = diskCache{dir: l.cacheDir}.store(path, g) // best-effort
		}
		return g, nil
	})
	if err == nil && joined {
		emit(GridHit)
	}
	return e, err
}

// spaceFor resolves a published space name. Only "coarse" and "fine"
// exist; the empty string is not accepted here — callers normalize first.
func (l *Lab) spaceFor(spaceName string) (*gridCache, *freq.Space, error) {
	switch spaceName {
	case "coarse":
		return l.coarseGrids, l.coarse, nil
	case "fine":
		return l.fineGrids, l.fine, nil
	default:
		return nil, nil, fmt.Errorf("experiments: unknown space %q (use coarse or fine)", spaceName)
	}
}

// GridKeyHash returns the platform fingerprint a stored or replicated
// grid depends on: the full simulator configuration plus the exact
// setting list of the named space — the same hash that keys the
// persistent disk cache. Two labs (or two cluster nodes) agree on a grid
// key iff this hash matches, so a recalibrated platform can never be
// routed onto a peer's stale shard.
func (l *Lab) GridKeyHash(spaceName string) (string, error) {
	_, space, err := l.spaceFor(spaceName)
	if err != nil {
		return "", err
	}
	return gridKeyHash(l.cfg, space), nil
}

// PeekGrid returns the completed cached grid for a benchmark in the named
// space without collecting, joining an in-flight collection, or touching
// the persistent cache. It is the cluster's warm-replica probe: a node
// answering a cached-only request must never be dragged into a
// collection.
func (l *Lab) PeekGrid(bench, spaceName string) (*trace.Grid, bool) {
	cache, _, err := l.spaceFor(spaceName)
	if err != nil {
		return nil, false
	}
	e, ok := cache.peek(bench)
	if !ok {
		return nil, false
	}
	return e.g, true
}

// PeekGridJSON is PeekGrid for the coarse grid's GridJSON bytes: the
// completed cached entry's encoding (made now if no request has made it
// yet), or false when nothing is cached or the grid cannot be encoded.
func (l *Lab) PeekGridJSON(bench string) ([]byte, bool) {
	e, ok := l.coarseGrids.peek(bench)
	if !ok {
		return nil, false
	}
	body, err := e.encoded()
	return body, err == nil
}

// SeedGrid installs an externally obtained grid — typically replicated
// from a cluster peer's response — into the in-memory cache, if no entry
// for the benchmark exists. The grid is validated the same way a
// persistent-cache load is (benchmark name and a bit-exact setting-list
// match against the named space); a mismatched grid is rejected rather
// than poisoning the cache. It reports whether the grid was stored.
func (l *Lab) SeedGrid(bench, spaceName string, g *trace.Grid) bool { //lint:allow ctx validation-only walk over an already collected grid; no sweep is performed
	cache, space, err := l.spaceFor(spaceName)
	if err != nil || g == nil {
		return false
	}
	if g.Benchmark != bench || g.NumSettings() != space.Len() {
		return false
	}
	for k, st := range space.Settings() {
		if g.Settings[k] != st { //lint:allow floateq a replicated grid is valid only under a bit-exact setting match
			return false
		}
	}
	return cache.put(bench, g)
}

// Forget drops every cached artifact for a benchmark — coarse and fine
// grids plus their analyses — so the next request recollects. In-flight
// collections are unaffected: their waiters still get the result, it just
// is not retained. Size-bounding layers (the serve LRU) call this on
// eviction. It reports whether anything was cached.
func (l *Lab) Forget(bench string) bool {
	dropped := l.coarseGrids.forget(bench)
	dropped = l.fineGrids.forget(bench) || dropped
	l.mu.Lock()
	if _, ok := l.analyses[bench]; ok {
		delete(l.analyses, bench)
		dropped = true
	}
	if _, ok := l.fineAnalyses[bench]; ok {
		delete(l.fineAnalyses, bench)
		dropped = true
	}
	l.mu.Unlock()
	return dropped
}

// Analysis returns the cached coarse-grid analysis for a benchmark.
func (l *Lab) Analysis(bench string) (*core.Analysis, error) {
	return l.AnalysisContext(context.Background(), bench)
}

// AnalysisContext is Analysis with cancellation of the underlying
// collection.
func (l *Lab) AnalysisContext(ctx context.Context, bench string) (*core.Analysis, error) {
	return l.analysisFor(ctx, l.analyses, bench, l.GridContext)
}

// FineAnalysis returns the cached fine-grid analysis for a benchmark.
func (l *Lab) FineAnalysis(bench string) (*core.Analysis, error) {
	return l.FineAnalysisContext(context.Background(), bench)
}

// FineAnalysisContext is FineAnalysis with cancellation of the underlying
// collection.
func (l *Lab) FineAnalysisContext(ctx context.Context, bench string) (*core.Analysis, error) {
	return l.analysisFor(ctx, l.fineAnalyses, bench, l.FineGridContext)
}

func (l *Lab) analysisFor(ctx context.Context, m map[string]*core.Analysis, bench string,
	grid func(context.Context, string) (*trace.Grid, error)) (*core.Analysis, error) {
	l.mu.Lock()
	a, ok := m[bench]
	l.mu.Unlock()
	if ok {
		return a, nil
	}
	g, err := grid(ctx, bench)
	if err != nil {
		return nil, err
	}
	a, err = core.NewAnalysis(g)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	// Keep the first stored analysis so concurrent builders agree on one
	// pointer, matching the grid cache's exactly-once result identity.
	if prev, ok := m[bench]; ok {
		a = prev
	} else {
		m[bench] = a
	}
	l.mu.Unlock()
	return a, nil
}
