// Command perfbench is the repository benchmark. It runs one named
// workload per process and prints its metrics as one JSON object on the
// last line of standard output:
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the same workload untraced and then traced, probes each layer on the
// workload's own inputs, and reports the per-layer metrics. See README.md
// in this directory for the workloads, the metrics and their noise.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// config is workloads.json: the settings every run of the benchmark
// shares.
type config struct {
	// HeldOutSeed was never run while the benchmark was tuned (on seeds
	// 1–20); a performance claim must hold on it too. Provenance says
	// whether a result was measured on it.
	HeldOutSeed uint64                    `json:"held_out_seed"`
	Workloads   map[string]workloadConfig `json:"workloads"`
}

type workloadConfig struct {
	// LatencyLimitMS is the per-op limit goodput counts against.
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	// TailPercentile is the percentile tail_ms reports; the timed phase
	// runs on until at least ten ops lie beyond it.
	TailPercentile float64 `json:"tail_percentile"`

	// figures only.
	Digest string `json:"digest,omitempty"`

	// serve_hot and cluster_churn only.
	Clients           int        `json:"clients,omitempty"`
	Nodes             int        `json:"nodes,omitempty"`
	MaxBenchmarks     int        `json:"max_benchmarks,omitempty"`
	Benchmarks        string     `json:"benchmarks,omitempty"` // "headline" or "all"
	ZipfS             float64    `json:"zipf_s,omitempty"`     // 0 draws benchmarks uniformly
	Mix               []mixEntry `json:"mix,omitempty"`
	Budgets           []float64  `json:"budgets,omitempty"` // [lo, hi) drawn uniformly, or a list drawn from
	ContinuousBudgets bool       `json:"continuous_budgets,omitempty"`
	WarmupOps         int        `json:"warmup_ops,omitempty"`
}

// mixEntry is one request class of a serving workload and its share of
// the request stream.
type mixEntry struct {
	Route string  `json:"route"` // "grid" or "optimal"
	Space string  `json:"space"` // "coarse" or "fine"
	Share float64 `json:"share"`
	// Benchmarks, when set, are the only ones this class asks for, in
	// equal shares; otherwise the workload's benchmarks and popularity
	// apply.
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// bench is one workload. setup builds everything the timed loop needs;
// measure runs the closed loop for d (tracing when rec is non-nil);
// check replays and verifies answers outside the timed region; layers
// adds the per-layer metrics of the traced phase; probeInputs names the
// benchmarks the stage probe runs on.
type bench interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, d time.Duration, minOps int, rec *recorder) (*tally, time.Duration, error)
	check(ctx context.Context) (int, error)
	layers(rec *recorder, m metrics)
	probeInputs() []string
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	setupOnly bool
	corrupt   bool
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	var o options
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload name (figures, serve_hot, cluster_churn)")
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fl.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	traceN := fl.Int("trace", 0, "1 runs the traced per-layer measurement")
	fl.BoolVar(&o.setupOnly, "setup-only", false, "set up, report readiness and exit (used to time set-up)")
	fl.BoolVar(&o.corrupt, "corrupt-expected", false, "corrupt one expected answer; the run must then fail")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	o.trace = *traceN == 1
	if o.seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return 2, fmt.Errorf("workloads.json: %w", err)
	}
	wc, ok := cfg.Workloads[o.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	b, err := newBench(o, wc)
	if err != nil {
		return 2, err
	}
	ctx := context.Background()

	if o.setupOnly {
		err := b.setup(ctx)
		b.close()
		if err != nil {
			return 1, err
		}
		fmt.Println("ready")
		return 0, nil
	}

	var setups []float64
	if !o.trace {
		if setups, err = timeSetups(ctx, o, setupRuns); err != nil {
			return 1, err
		}
	}
	if err := b.setup(ctx); err != nil {
		b.close()
		return 1, fmt.Errorf("setup: %w", err)
	}
	res, prov, err := measure(ctx, o, wc, b, setups)
	b.close()
	if err != nil {
		return 1, err
	}
	prov["setup_runs"] = len(setups)
	prov["held_out_seed"] = o.seed == cfg.HeldOutSeed
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("outputs were wrong")
	}
	return 0, nil
}

func newBench(o options, wc workloadConfig) (bench, error) {
	switch o.workload {
	case "figures":
		return newFigures(o, wc), nil
	case "serve_hot", "cluster_churn":
		return newServing(o, wc)
	}
	return nil, fmt.Errorf("no implementation for workload %q", o.workload)
}

// measure runs the timed phase (or, traced, an untraced and a traced
// half), the output checks and, traced, the stage probe.
func measure(ctx context.Context, o options, wc workloadConfig, b bench, setups []float64) (result, map[string]any, error) {
	res := result{Correct: true, Metrics: metrics{}}
	d := time.Duration(o.seconds) * time.Second
	minOps := minSamples(wc.TailPercentile)
	if o.trace {
		d /= 2
		minOps = 0 // the traced run reports no percentiles
	}
	plain, elapsed, err := b.measure(ctx, d, minOps, nil)
	if err != nil {
		return res, nil, err
	}
	peakMB, err := peakRSSMB()
	if err != nil {
		return res, nil, err
	}
	ops := float64(plain.good) / elapsed.Seconds()
	attempted, failed, mismatched := plain.attempted, plain.failed, plain.mismatch

	if o.trace {
		rec := newRecorder()
		traced, tElapsed, err := b.measure(ctx, d, 0, rec)
		if err != nil {
			return res, nil, err
		}
		attempted += traced.attempted
		failed += traced.failed
		mismatched += traced.mismatch
		b.layers(rec, res.Metrics)
		tracedOps := float64(traced.good) / tElapsed.Seconds()
		res.Metrics.set("bench.tracing_overhead", (ops-tracedOps)/ops, "1")
		if err := probe(ctx, b.probeInputs(), rec, res.Metrics); err != nil {
			return res, nil, fmt.Errorf("stage probe: %w", err)
		}
		if err := writeSpans(o, rec); err != nil {
			return res, nil, err
		}
		if err := complete(res.Metrics, layerMetrics()); err != nil {
			return res, nil, err
		}
	}

	// Wrong answers found after the timed region count as failed ops.
	checkStart := time.Now()
	bad, err := b.check(ctx)
	fmt.Fprintf(os.Stderr, "perfbench: output check took %.1fs\n", time.Since(checkStart).Seconds())
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
	}
	failed += bad
	mismatched += bad
	if mismatched > 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d answers differed from the expected ones\n", mismatched)
	}
	res.Attempted, res.Failed = attempted, failed

	// A run with wrong answers reports them and no end-to-end metrics.
	if !o.trace && res.Correct {
		p50, err := percentile(plain.latencyMS, 50)
		if err != nil {
			return res, nil, err
		}
		tail, err := percentile(plain.latencyMS, wc.TailPercentile)
		if err != nil {
			return res, nil, err
		}
		m := res.Metrics
		m.set("setup_s", median(setups), "s")
		m.set("ops_per_s", ops, "1/s")
		m.set("p50_ms", p50, "ms")
		m.set("tail_ms", tail, "ms")
		m.set("peak_rss_mb", peakMB, "MB")
		m.set("ok_ratio", float64(attempted-failed)/float64(attempted), "1")
		if err := complete(m, endToEnd); err != nil {
			return res, nil, err
		}
	}
	prov := provenance(o)
	prov["ops"] = plain.attempted
	prov["measured_s"] = elapsed.Seconds()
	prov["tail_percentile"] = wc.TailPercentile
	prov["latency_limit_ms"] = wc.LatencyLimitMS
	return res, prov, nil
}

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "1"},
}

// complete checks that a run reports exactly the wanted metrics, so no
// workload silently drops one.
func complete(m metrics, want []metricSpec) error {
	for _, lm := range want {
		if got, ok := m[lm.name]; !ok || got.Unit != lm.unit {
			return fmt.Errorf("metric %s missing or has the wrong unit", lm.name)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("run reports %d metrics, want %d", len(m), len(want))
	}
	return nil
}

// timeSetups starts n fresh processes that only set the workload up, and
// times each from process start until it reports ready.
func timeSetups(ctx context.Context, o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		cmd := exec.CommandContext(cctx, exe, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			cancel()
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			cancel()
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		took := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout) // drain so the child never blocks on a full pipe
		werr := cmd.Wait()
		cancel()
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("set-up process %d never became ready (%v, %v)", i, rerr, werr)
		}
		if werr != nil {
			return nil, fmt.Errorf("set-up process %d: %w", i, werr)
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// writeSpans stores the traced run's spans under .bench_build/.
func writeSpans(o options, rec *recorder) error {
	dir := filepath.Join(".bench_build", "perfbench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed)))
}

// provenance records what a result was measured on and how.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"run_seconds":   o.seconds,
		"trace":         o.trace,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

// gitCommit reads HEAD from a .git directory in the working directory,
// if there is one; benchmark checkouts usually have none, which is why
// the source digest is recorded as well.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes the program's Go sources and go.mod (everything
// outside the benchmark's own directory and build output), so a result
// names the exact code it measured.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
