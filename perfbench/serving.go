package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcdvfs"
	"mcdvfs/internal/cluster"
	"mcdvfs/internal/core"
	"mcdvfs/internal/serve"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// headerReq carries the benchmark's request ID from its client to its
// timing middleware. The cluster does not forward it, which is how the
// middleware tells a client's request from a node's own.
const headerReq = "X-Perfbench-Req"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// request is one generated request. key identifies its answer: the same
// key must get the same body from any node.
type request struct {
	route string // "grid" or "optimal"
	bench string
	space string
	entry int // index of the node the client sends it to
	body  []byte
	key   string
}

// blockSize is how many requests the generator deals at a time. Each block
// holds every (class, benchmark) cell and every entry node in its exact
// share, shuffled by the seed: runs on different seeds differ in order,
// not in composition, so their medians compare.
const blockSize = 200

// cell is one request class for one benchmark.
type cell struct {
	mixEntry
	bench string
}

// generator deals the seeded request stream. Clients take requests in
// stream order, so a seed fixes the sequence whatever the timing.
type generator struct {
	mu      sync.Mutex
	rng     *rand.Rand
	benches []string
	deck    []cell // one block, in quota order
	block   []cell // the block being dealt, shuffled
	entries []int  // entry node of each request in block
	budgets []float64
	cont    bool
	nodes   int
}

func newGenerator(wc workloadConfig, seed uint64) (*generator, error) {
	g := &generator{
		rng:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		budgets: wc.Budgets,
		cont:    wc.ContinuousBudgets,
		nodes:   max(wc.Nodes, 1),
	}
	switch wc.Benchmarks {
	case "headline":
		g.benches = workload.HeadlineNames()
	case "all":
		g.benches = workload.Names()
	default:
		return nil, fmt.Errorf("benchmarks %q: want headline or all", wc.Benchmarks)
	}
	if len(wc.Mix) == 0 || len(g.budgets) == 0 || (g.cont && len(g.budgets) != 2) {
		return nil, errors.New("a serving workload needs a mix and budgets")
	}
	// Benchmark popularity is Zipf over the registry order (uniform when
	// zipf_s is 0), so the same benchmarks are hot on every seed.
	var cells []cell
	var weights []float64
	for _, m := range wc.Mix {
		benches, s := g.benches, wc.ZipfS
		if len(m.Benchmarks) > 0 {
			benches, s = m.Benchmarks, 0
		}
		var sum float64
		for k := range benches {
			sum += math.Pow(float64(k+1), -s)
		}
		for k, b := range benches {
			if _, err := workload.ByName(b); err != nil {
				return nil, err
			}
			cells = append(cells, cell{m, b})
			weights = append(weights, m.Share*math.Pow(float64(k+1), -s)/sum)
		}
	}
	for i, n := range apportion(weights, blockSize) {
		for ; n > 0; n-- {
			g.deck = append(g.deck, cells[i])
		}
	}
	return g, nil
}

// apportion splits n into whole shares proportional to weights by the
// largest-remainder method.
func apportion(weights []float64, n int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for i, w := range weights {
		exact := w / sum * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

func (g *generator) next() *request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = append(g.block, g.deck...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.entries = g.entries[:0]
		for i := range g.block {
			g.entries = append(g.entries, i%g.nodes)
		}
		g.rng.Shuffle(len(g.entries), func(i, j int) { g.entries[i], g.entries[j] = g.entries[j], g.entries[i] })
	}
	c, entry := g.block[0], g.entries[0]
	g.block, g.entries = g.block[1:], g.entries[1:]
	var budget float64
	if c.Route == "optimal" {
		budget = g.budgets[g.rng.IntN(len(g.budgets))]
		if g.cont {
			budget = g.budgets[0] + g.rng.Float64()*(g.budgets[1]-g.budgets[0])
		}
	}
	return newRequest(c.Route, c.bench, c.Space, budget, entry)
}

// newRequest builds a request and its key; budget matters only on the
// optimal route.
func newRequest(route, bench, space string, budget float64, entry int) *request {
	q := &request{route: route, bench: bench, space: space, entry: entry}
	var v any = serve.GridRequest{Benchmark: bench, Space: space}
	if route == "optimal" {
		v = serve.OptimalRequest{Benchmark: bench, Space: space, Budget: budget}
	}
	q.body, _ = json.Marshal(v) // plain structs of strings and finite floats
	q.key = route + " " + string(q.body)
	return q
}

// reqRecord is one answered (or failed) client request.
type reqRecord struct {
	id         int64
	q          *request
	start, end time.Time
	status     int
	err        error
	size       int64
	crc        uint32
	node       string // the cluster node that served it; empty from a lone daemon
}

// handlerRecord is one request as a node's timing middleware saw it.
// Requests the nodes send each other carry no client ID (req 0).
type handlerRecord struct {
	node       int
	req        int64
	route      string
	key        string
	start, end int64
}

// serving drives mcdvfsd, one daemon (serve_hot) or a ring of cluster
// nodes (cluster_churn), with closed-loop clients over loopback.
type serving struct {
	wc      workloadConfig
	seed    uint64
	corrupt bool
	limit   time.Duration
	gen     *generator

	client  *http.Client
	urls    []string
	servers []*http.Server
	served  sync.WaitGroup

	ids     atomic.Int64
	records []reqRecord // every measured request, for the output check

	tracing  atomic.Pointer[recorder]
	hmu      sync.Mutex
	handlers []handlerRecord

	traced        []reqRecord // the traced phase's requests
	before, after map[string]int64
}

func newServing(o options, wc workloadConfig) (*serving, error) {
	gen, err := newGenerator(wc, o.seed)
	if err != nil {
		return nil, err
	}
	return &serving{
		wc:      wc,
		seed:    o.seed,
		corrupt: o.corrupt,
		limit:   time.Duration(wc.LatencyLimitMS * float64(time.Millisecond)),
		gen:     gen,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: wc.Clients,
			DisableCompression:  true,
		}},
	}, nil
}

// setup starts the daemon or the cluster on loopback, then warms it: the
// daemon collects every grid the stream asks for; the cluster answers a
// warm-up stream until its caches churn as they will under the timed load.
func (s *serving) setup(ctx context.Context) error {
	nodes := max(s.wc.Nodes, 1)
	lns := make([]net.Listener, nodes)
	peers := make(map[string]string, nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[i] = ln
		s.urls = append(s.urls, "http://"+ln.Addr().String())
		peers[nodeID(i)] = s.urls[i]
	}
	for i, ln := range lns {
		h, err := s.newHandler(i, peers)
		if err != nil {
			for _, l := range lns[i:] {
				_ = l.Close() // never served; a close error loses nothing
			}
			return err
		}
		hs := &http.Server{Handler: s.timed(i, h)}
		s.servers = append(s.servers, hs)
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
		}()
	}

	if s.wc.Nodes == 0 {
		for _, b := range s.gen.benches {
			for _, space := range []string{"coarse", "fine"} {
				for _, route := range []string{"grid", "optimal"} {
					q := newRequest(route, b, space, 1, 0)
					if r := s.do(ctx, q); r.err != nil || r.status != 200 {
						return fmt.Errorf("pre-collecting %s: status %d, %v", q.key, r.status, r.err)
					}
				}
			}
		}
	}
	warm, err := newGenerator(s.wc, s.seed^0x5eed)
	if err != nil {
		return err
	}
	for i := 0; i < s.wc.WarmupOps; i++ {
		q := warm.next()
		if r := s.do(ctx, q); r.err != nil || r.status != 200 {
			return fmt.Errorf("warm-up %s: status %d, %v", q.key, r.status, r.err)
		}
	}
	return nil
}

// newHandler builds node i: the lone daemon, or a cluster node that knows
// every peer.
func (s *serving) newHandler(i int, peers map[string]string) (http.Handler, error) {
	scfg := serve.Config{MaxBenchmarks: s.wc.MaxBenchmarks}
	if s.wc.Nodes == 0 {
		srv, err := serve.New(scfg)
		if err != nil {
			return nil, err
		}
		return srv.Handler(), nil
	}
	n, err := cluster.NewNode(cluster.Config{Self: nodeID(i), Peers: peers, Serve: scfg})
	if err != nil {
		return nil, err
	}
	return n.Handler(), nil
}

func nodeID(i int) string { return "node" + strconv.Itoa(i) }

func (s *serving) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.servers {
		_ = hs.Shutdown(ctx) // a shutdown error leaves nothing to clean up in a process about to exit
	}
	s.served.Wait()
	s.client.CloseIdleConnections()
}

// timed is the benchmark's timing middleware around a node's handler. It
// costs one atomic load until a traced phase switches it on.
func (s *serving) timed(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := s.tracing.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		id, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		hr := handlerRecord{
			node:  node,
			req:   id,
			route: strings.TrimPrefix(r.URL.Path, "/v1/"),
			key:   strings.TrimPrefix(r.URL.Path, "/v1/") + " " + string(body),
			start: rec.now(),
		}
		h.ServeHTTP(w, r)
		hr.end = rec.now()
		s.hmu.Lock()
		s.handlers = append(s.handlers, hr)
		s.hmu.Unlock()
	})
}

// do sends one request and waits for the whole reply. The client never
// retries: a 429 is an answer like any other, and it counts as failed.
func (s *serving) do(ctx context.Context, q *request) reqRecord {
	r := reqRecord{id: s.ids.Add(1), q: q}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.urls[q.entry]+"/v1/"+q.route, bytes.NewReader(q.body))
	if err != nil {
		r.err = err
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(headerReq, strconv.FormatInt(r.id, 10))
	r.start = time.Now()
	resp, err := s.client.Do(hreq)
	if err != nil {
		r.err = err
		r.end = time.Now()
		return r
	}
	h := crc32.New(crcTable)
	r.size, r.err = io.Copy(h, resp.Body)
	_ = resp.Body.Close() // fully read; a close error loses nothing
	r.end = time.Now()
	r.status = resp.StatusCode
	r.crc = h.Sum32()
	r.node = resp.Header.Get(cluster.HeaderNode)
	return r
}

// measure runs the workload's clients in a closed loop until d has passed.
func (s *serving) measure(ctx context.Context, d time.Duration, minOps int, rec *recorder) (*tally, time.Duration, error) {
	if rec != nil {
		var err error
		if s.before, err = s.scrape(ctx); err != nil {
			return nil, 0, err
		}
		s.tracing.Store(rec)
	}
	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]reqRecord, s.wc.Clients)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) || sent.Load() < int64(minOps) {
				sent.Add(1)
				perClient[c] = append(perClient[c], s.do(ctx, s.gen.next()))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	s.tracing.Store(nil)

	t := &tally{limit: s.limit}
	var phase []reqRecord
	for _, rs := range perClient {
		for _, r := range rs {
			t.add(outcome{err: r.err, status: r.status, latency: r.end.Sub(r.start)})
			phase = append(phase, r)
		}
	}
	s.records = append(s.records, phase...)
	logClasses(phase, s.wc.TailPercentile)
	if rec != nil {
		s.traced = phase
		var err error
		if s.after, err = s.scrape(ctx); err != nil {
			return nil, 0, err
		}
	}
	return t, elapsed, nil
}

// scrape sums every node's /metrics counters.
func (s *serving) scrape(ctx context.Context) (map[string]int64, error) {
	sum := make(map[string]int64)
	for _, u := range s.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return nil, err
		}
		m, err := serve.ParseMetrics(resp.Body)
		_ = resp.Body.Close() // read-only; a close error loses nothing
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// answer is the expected reply to one request key.
type answer struct {
	size int64
	crc  uint32
	sha  [32]byte
}

// check computes the expected answer to every distinct key the run sent,
// straight from the collection and analysis layers, compares every timed
// reply's size and CRC-32C against it, then replays each key once, at the
// nodes in turn, and compares the whole body's SHA-256. Timed requests
// enter the cluster at random nodes and all are held to the one expected
// answer per key, so a node that answered differently fails the run. It
// returns how many timed replies were wrong.
func (s *serving) check(ctx context.Context) (int, error) {
	byKey := make(map[string]*request)
	for _, r := range s.records {
		byKey[r.q.key] = r.q
	}
	want, err := expectedAnswers(ctx, byKey)
	if err != nil {
		return 0, err
	}
	if s.corrupt {
		for _, a := range want {
			a.crc++
			a.sha[0]++
			break
		}
	}
	bad := 0
	for _, r := range s.records {
		if a := want[r.q.key]; r.err == nil && r.status == 200 && (r.size != a.size || r.crc != a.crc) {
			bad++
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		q := *byKey[k]
		q.entry = i % len(s.urls)
		if err := s.replay(ctx, &q, want[k]); err != nil {
			return bad, err
		}
	}
	return bad, nil
}

func (s *serving) replay(ctx context.Context, q *request, want *answer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.urls[q.entry]+"/v1/"+q.route, bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("replaying %s at node %d: %w", q.key, q.entry, err)
	}
	defer func() { _ = resp.Body.Close() }() // read-only; a close error loses nothing
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return fmt.Errorf("replaying %s at node %d: %w", q.key, q.entry, err)
	}
	var got [32]byte
	h.Sum(got[:0])
	if resp.StatusCode != 200 || got != want.sha {
		return fmt.Errorf("replaying %s at node %d: status %d, body differs from the expected answer", q.key, q.entry, resp.StatusCode)
	}
	return nil
}

// expectedAnswers computes each key's answer directly: the grid from
// trace.CollectContext encoded with Grid.WriteJSON, the optimal schedule
// from core.NewAnalysis. One (benchmark, space) is held at a time.
func expectedAnswers(ctx context.Context, byKey map[string]*request) (map[string]*answer, error) {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	groups := make(map[[2]string][]*request)
	for _, q := range byKey {
		groups[[2]string{q.bench, q.space}] = append(groups[[2]string{q.bench, q.space}], q)
	}
	want := make(map[string]*answer, len(byKey))
	for bs, qs := range groups {
		b, err := workload.ByName(bs[0])
		if err != nil {
			return nil, err
		}
		space := mcdvfs.CoarseSpace()
		if bs[1] == "fine" {
			space = mcdvfs.FineSpace()
		}
		g, err := trace.CollectContext(ctx, sys, b, space, trace.CollectOptions{})
		if err != nil {
			return nil, err
		}
		var a *core.Analysis
		for _, q := range qs {
			var buf bytes.Buffer
			if q.route == "grid" {
				err = g.WriteJSON(&buf)
			} else {
				if a == nil {
					if a, err = core.NewAnalysis(g); err != nil {
						return nil, err
					}
				}
				var req serve.OptimalRequest
				if err := json.Unmarshal(q.body, &req); err != nil {
					return nil, err
				}
				err = writeOptimal(&buf, a, req)
			}
			if err != nil {
				return nil, fmt.Errorf("expected answer to %s: %w", q.key, err)
			}
			want[q.key] = &answer{
				size: int64(buf.Len()),
				crc:  crc32.Checksum(buf.Bytes(), crcTable),
				sha:  sha256.Sum256(buf.Bytes()),
			}
		}
	}
	return want, nil
}

// writeOptimal encodes the /v1/optimal answer from the analysis: the
// budgeted optimal schedule and the settings it uses, in ascending ID
// order.
func writeOptimal(w io.Writer, a *core.Analysis, req serve.OptimalRequest) error {
	sch, err := a.OptimalSchedule(req.Budget)
	if err != nil {
		return err
	}
	resp := serve.OptimalResponse{
		Benchmark:                  req.Benchmark,
		Space:                      req.Space,
		Budget:                     req.Budget,
		NumSamples:                 a.NumSamples(),
		Transitions:                sch.Transitions(),
		TransitionsPerBillionInstr: a.TransitionsPerBillion(sch.Transitions()),
		Schedule:                   make([]int, len(sch)),
	}
	used := make(map[int]bool)
	for i, id := range sch {
		resp.Schedule[i] = int(id)
		used[int(id)] = true
	}
	ids := make([]int, 0, len(used))
	for id := range used {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := a.Grid().Setting(mcdvfs.SettingID(id))
		resp.Settings = append(resp.Settings, serve.OptimalSettingJSON{ID: id, CPUMHz: float64(st.CPU), MemMHz: float64(st.Mem)})
	}
	return json.NewEncoder(w).Encode(resp)
}

func (s *serving) probeInputs() []string {
	// The most requested benchmarks of the stream, at most six.
	return s.gen.benches[:min(6, len(s.gen.benches))]
}

// layers turns the traced phase into spans — client request, the entry
// node's handler, and any handler a peer ran for it — and reports
// self times, sizes and the /metrics deltas.
func (s *serving) layers(rec *recorder, m metrics) {
	clientSpan := make(map[int64]int64, len(s.traced))
	var sizes []float64
	for _, r := range s.traced {
		id := rec.newID()
		clientSpan[r.id] = id
		rec.add(span{Name: "client." + r.q.route, ID: id, Req: r.id,
			Start: int64(r.start.Sub(rec.epoch)), End: int64(r.end.Sub(rec.epoch))})
		if r.status == 200 {
			sizes = append(sizes, float64(r.size)/1e6)
		}
	}
	type entry struct {
		span
		node int
	}
	entries := make(map[string][]entry) // by key
	var internal []handlerRecord
	s.hmu.Lock()
	handlers := s.handlers
	s.handlers = nil
	s.hmu.Unlock()
	for _, h := range handlers {
		parent, ok := clientSpan[h.req]
		if h.req == 0 || !ok {
			internal = append(internal, h)
			continue
		}
		sp := span{Name: "serve.handler." + h.route, ID: rec.newID(), Parent: parent, Req: h.req, Start: h.start, End: h.end}
		rec.add(sp)
		entries[h.key] = append(entries[h.key], entry{sp, h.node})
	}
	// A node's request to a peer hangs under the innermost entry handler
	// of the same key that was open on another node around it.
	for _, h := range internal {
		var best *entry
		for i, e := range entries[h.key] {
			if e.node != h.node && e.Start <= h.start && h.end <= e.End && (best == nil || e.Start > best.Start) {
				best = &entries[h.key][i]
			}
		}
		if best != nil {
			rec.add(span{Name: "serve.peer." + h.route, ID: rec.newID(), Parent: best.ID, Req: best.Req, Start: h.start, End: h.end})
		}
	}

	spans := rec.all()
	self := selfTimes(spans)
	hasChild := make(map[int64]bool)
	for _, sp := range spans {
		hasChild[sp.Parent] = true
	}
	var wire, hop []float64
	handlerMS := map[string][]float64{}
	for _, sp := range spans {
		switch {
		case strings.HasPrefix(sp.Name, "client."):
			wire = append(wire, float64(self[sp.ID])/1e6)
		case strings.HasPrefix(sp.Name, "serve.handler.") && hasChild[sp.ID]:
			hop = append(hop, float64(self[sp.ID])/1e6)
		case strings.HasPrefix(sp.Name, "serve.handler."), strings.HasPrefix(sp.Name, "serve.peer."):
			route := sp.Name[strings.LastIndexByte(sp.Name, '.')+1:]
			handlerMS[route] = append(handlerMS[route], float64(sp.dur())/1e6)
		}
	}
	delta := func(name string) float64 { return float64(s.after[name] - s.before[name]) }
	ratio := func(a, b float64) float64 {
		if b <= 0 { // a count: no events, no ratio
			return 0
		}
		return a / b
	}
	m.set("serve.handler_ms.grid", mean(handlerMS["grid"]), "ms")
	m.set("serve.handler_ms.optimal", mean(handlerMS["optimal"]), "ms")
	m.set("serve.wire_ms", mean(wire), "ms")
	m.set("serve.response_mb", mean(sizes), "MB")
	// Of the lookups that reached the grid cache, the share it answered;
	// a cached analysis answers without a lookup.
	hits := delta("mcdvfsd_grid_cache_hits_total")
	m.set("serve.grid_cache_hit_ratio", ratio(hits, hits+delta("mcdvfsd_grid_collections_total")+delta("mcdvfsd_grid_disk_loads_total")), "1")
	m.set("serve.memo_hit_ratio", ratio(delta("mcdvfsd_optimal_memo_hits_total"), delta("mcdvfsd_optimal_requests_total")), "1")
	m.set("serve.collections", delta("mcdvfsd_grid_collections_total"), "count")
	m.set("serve.shed", delta("mcdvfsd_shed_total"), "count")
	if s.wc.Nodes == 0 {
		zeroLayers(m, "cluster", "experiments")
		return
	}
	requests := float64(len(s.traced))
	m.set("cluster.proxy_hop_ms", mean(hop), "ms")
	m.set("cluster.proxied_ratio", ratio(delta("mcdvfsd_cluster_proxied_total"), requests), "1")
	m.set("cluster.miss_ratio", ratio(delta("mcdvfsd_grid_collections_total"), requests), "1")
	m.set("cluster.replica_seeds", delta("mcdvfsd_cluster_replica_seeds_total"), "count")
	m.set("cluster.inflight_waits", delta("mcdvfsd_cluster_inflight_waits_total"), "count")
	m.set("cluster.stale_fallbacks", delta("mcdvfsd_cluster_stale_fallbacks_total"), "count")
	m.set("cluster.proxy_errors", delta("mcdvfsd_cluster_proxy_errors_total"), "count")
	zeroLayers(m, "experiments")
}

// logClasses prints each request class's share and latency quartiles to
// standard error, to show where the reported percentiles fall, and the
// request rate in each quarter of the phase, to show drift within a run.
// In a cluster, requests the entry node served itself (local) and those
// it proxied to a peer are separate classes. For p50 and the tail
// percentile it also prints which classes the requests next to it in
// latency order belong to: a percentile well inside one class's mode has
// that class on both sides.
func logClasses(phase []reqRecord, tail float64) {
	if len(phase) == 0 {
		return
	}
	first, last := phase[0].start, phase[0].end
	for _, r := range phase {
		if r.start.Before(first) {
			first = r.start
		}
		if r.end.After(last) {
			last = r.end
		}
	}
	var quarters [4]int
	for _, r := range phase {
		quarters[min(3, int(4*r.end.Sub(first)/(last.Sub(first)+1)))]++
	}
	quarter := last.Sub(first).Seconds() / 4
	fmt.Fprintf(os.Stderr, "requests/s by quarter: %.1f %.1f %.1f %.1f\n", float64(quarters[0])/quarter,
		float64(quarters[1])/quarter, float64(quarters[2])/quarter, float64(quarters[3])/quarter)
	type timedReq struct {
		ms    float64
		class string
	}
	var all []timedReq
	byClass := make(map[string][]float64)
	for _, r := range phase {
		if r.err == nil && r.status == 200 {
			ms := float64(r.end.Sub(r.start)) / 1e6
			c := r.q.route + "." + r.q.space
			switch {
			case r.node == "":
			case r.node == nodeID(r.q.entry):
				c += ".local"
			default:
				c += ".proxied"
			}
			all = append(all, timedReq{ms, c})
			byClass[c] = append(byClass[c], ms)
			byClass[c+"."+r.q.bench] = append(byClass[c+"."+r.q.bench], ms)
		}
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ms < all[j].ms })
	names := make([]string, 0, len(byClass))
	for c := range byClass {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		xs := byClass[c]
		sort.Float64s(xs)
		q := func(p float64) float64 { return xs[min(len(xs)-1, int(p*float64(len(xs))))] }
		fmt.Fprintf(os.Stderr, "class %-36s n=%5d share=%.3f min=%7.2f q1=%7.2f med=%7.2f q3=%7.2f max=%7.2f ms\n",
			c, len(xs), float64(len(xs))/float64(len(phase)), xs[0], q(0.25), q(0.5), q(0.75), xs[len(xs)-1])
	}
	// The requests within a rank window around each percentile, by class:
	// ±5 points around p50, ±half the share beyond the tail percentile.
	for _, p := range []float64{50, tail} {
		half := min(5, (100-p)/2)
		lo := int(float64(len(all)) * (p - half) / 100)
		hi := min(len(all), int(float64(len(all))*(p+half)/100))
		count := make(map[string]int)
		for _, t := range all[lo:hi] {
			count[t.class]++
		}
		classes := make([]string, 0, len(count))
		for c := range count {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return count[classes[i]] > count[classes[j]] })
		line := fmt.Sprintf("around p%g (ranks %g–%g%%, %.2f–%.2f ms):", p, p-half, p+half, all[lo].ms, all[max(lo, hi-1)].ms)
		for _, c := range classes {
			line += fmt.Sprintf(" %s %.0f%%", c, 100*float64(count[c])/float64(hi-lo))
		}
		fmt.Fprintln(os.Stderr, line)
	}
}
