package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mcdvfs"
	"mcdvfs/internal/core"
	"mcdvfs/internal/experiments"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// layerMetrics lists every per-layer metric a traced run prints, with its
// unit. A workload that does not use a layer reports its metrics as 0.
func layerMetrics() []metricSpec {
	ms := []metricSpec{
		{"workload.realize_ms", "ms"},
		{"sim.solve_ns_per_cell.coarse", "ns"},
		{"sim.solve_ns_per_cell.fine", "ns"},
		{"sim.iters_per_cell", "count"},
		{"sim.convergence_failures", "count"},
		{"trace.collect_ms.coarse", "ms"},
		{"trace.collect_ms.fine", "ms"},
		{"trace.collect_ms.fine.serial", "ms"},
		{"trace.parallel_speedup", "1"},
		{"trace.encode_ms.coarse", "ms"},
		{"trace.encode_ms.fine", "ms"},
		{"trace.decode_ms.coarse", "ms"},
		{"trace.decode_ms.fine", "ms"},
		{"trace.grid_mb.coarse", "MB"},
		{"trace.grid_mb.fine", "MB"},
		{"core.analysis_ms.coarse", "ms"},
		{"core.analysis_ms.fine", "ms"},
		{"core.optimal_ms.coarse", "ms"},
		{"core.optimal_ms.fine", "ms"},
		{"governor.run_ms", "ms"},
		{"experiments.collect_share", "1"},
		{"experiments.flights", "count"},
		{"experiments.grid_hits", "count"},
		{"experiments.columns", "count"},
	}
	for _, r := range experiments.Runners() {
		ms = append(ms, metricSpec{"experiments." + r.ID + "_ms", "ms"})
	}
	return append(ms,
		metricSpec{"serve.handler_ms.grid", "ms"},
		metricSpec{"serve.handler_ms.optimal", "ms"},
		metricSpec{"serve.wire_ms", "ms"},
		metricSpec{"serve.response_mb", "MB"},
		metricSpec{"serve.grid_cache_hit_ratio", "1"},
		metricSpec{"serve.memo_hit_ratio", "1"},
		metricSpec{"serve.collections", "count"},
		metricSpec{"serve.shed", "count"},
		metricSpec{"cluster.proxy_hop_ms", "ms"},
		metricSpec{"cluster.proxied_ratio", "1"},
		metricSpec{"cluster.miss_ratio", "1"},
		metricSpec{"cluster.replica_seeds", "count"},
		metricSpec{"cluster.inflight_waits", "count"},
		metricSpec{"cluster.stale_fallbacks", "count"},
		metricSpec{"cluster.proxy_errors", "count"},
		metricSpec{"bench.tracing_overhead", "1"},
	)
}

// metricSpec is a metric's name and unit as BENCHMARK.json declares them.
type metricSpec struct{ name, unit string }

// zeroLayers reports every metric of the named layers as 0: the workload
// does no work in them.
func zeroLayers(m metrics, layers ...string) {
	for _, lm := range layerMetrics() {
		for _, l := range layers {
			if strings.HasPrefix(lm.name, l+".") {
				m.set(lm.name, 0, lm.unit)
			}
		}
	}
}

// probe calls each layer's public functions on the workload's own
// benchmarks, one span per call, and reports each stage's mean time per
// benchmark. The solver counts are exact and repeat run to run.
func probe(ctx context.Context, benches []string, rec *recorder, m metrics) error {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return err
	}
	req := rec.newID()
	timed := func(name string, fn func() error) (float64, error) {
		_, end := rec.begin(name, 0, req)
		t0 := time.Now()
		err := fn()
		took := time.Since(t0)
		end()
		return float64(took) / float64(time.Millisecond), err
	}
	spaces := map[string]*mcdvfs.Space{"coarse": mcdvfs.CoarseSpace(), "fine": mcdvfs.FineSpace()}
	sums := make(map[string]float64)
	var stats sim.RunnerStats
	for _, name := range benches {
		b, err := workload.ByName(name)
		if err != nil {
			return err
		}
		// Realize takes tens of microseconds; time a batch of calls.
		const realizeReps = 50
		var specs []workload.SampleSpec
		ms, err := timed("workload.realize", func() error {
			for i := 0; i < realizeReps; i++ {
				if specs, err = b.Realize(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		sums["workload.realize_ms"] += ms / realizeReps

		for _, sp := range []string{"coarse", "fine"} {
			space := spaces[sp]
			var st sim.RunnerStats
			ms, err := timed("sim.solve."+sp, func() error {
				st, err = solveChains(sys, specs, space)
				return err
			})
			if err != nil {
				return err
			}
			sums["sim.solve_ns_per_cell."+sp] += ms * 1e6 / float64(st.Cells)
			stats.Cells += st.Cells
			stats.Iterations += st.Iterations
			stats.ConvergenceFailures += st.ConvergenceFailures

			var g *trace.Grid
			if ms, err = timed("trace.collect."+sp, func() error {
				g, err = trace.CollectContext(ctx, sys, b, space, trace.CollectOptions{Workers: runtime.GOMAXPROCS(0)})
				return err
			}); err != nil {
				return err
			}
			sums["trace.collect_ms."+sp] += ms
			if sp == "fine" {
				if ms, err = timed("trace.collect.fine.serial", func() error {
					_, err := trace.CollectContext(ctx, sys, b, space, trace.CollectOptions{Workers: 1})
					return err
				}); err != nil {
					return err
				}
				sums["trace.collect_ms.fine.serial"] += ms
			}
			var buf bytes.Buffer
			if ms, err = timed("trace.encode."+sp, func() error { return g.WriteJSON(&buf) }); err != nil {
				return err
			}
			sums["trace.encode_ms."+sp] += ms
			sums["trace.grid_mb."+sp] += float64(buf.Len()) / 1e6
			if ms, err = timed("trace.decode."+sp, func() error {
				_, err := trace.ReadJSON(bytes.NewReader(buf.Bytes()))
				return err
			}); err != nil {
				return err
			}
			sums["trace.decode_ms."+sp] += ms

			var a *core.Analysis
			if ms, err = timed("core.analysis."+sp, func() error {
				a, err = core.NewAnalysis(g)
				return err
			}); err != nil {
				return err
			}
			sums["core.analysis_ms."+sp] += ms
			budgets := []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6}
			if ms, err = timed("core.optimal."+sp, func() error {
				for _, bud := range budgets {
					if _, err := a.OptimalSchedule(bud); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
			sums["core.optimal_ms."+sp] += ms / float64(len(budgets))
		}
	}
	n := float64(len(benches))
	for k, v := range sums {
		m.set(k, v/n, unitOf(k))
	}
	m.set("trace.parallel_speedup", sums["trace.collect_ms.fine.serial"]/sums["trace.collect_ms.fine"], "1")
	m.set("sim.iters_per_cell", float64(stats.Iterations)/float64(stats.Cells), "count")
	m.set("sim.convergence_failures", float64(stats.ConvergenceFailures), "count")

	ms, err := timed("governor.run", func() error { return runBudgetGovernor(sys) })
	if err != nil {
		return fmt.Errorf("governor: %w", err)
	}
	m.set("governor.run_ms", ms, "ms")
	return nil
}

// solveChains sweeps the space the way a serial collection does: one
// Runner walks the CPU chains in turn, solving each chain's memory steps
// in descending order with warm starts.
func solveChains(sys *sim.System, specs []workload.SampleSpec, space *mcdvfs.Space) (sim.RunnerStats, error) {
	r, err := sim.NewRunner(sys, specs)
	if err != nil {
		return sim.RunnerStats{}, err
	}
	nm := len(space.MemLadder())
	for ci := range space.CPULadder() {
		r.ResetSeed()
		for mi := nm - 1; mi >= 0; mi-- {
			if _, err := r.Solve(space.Settings()[ci*nm+mi], mi < nm-1); err != nil {
				return sim.RunnerStats{}, err
			}
		}
	}
	return r.Stats(), nil
}

// runBudgetGovernor drives the paper's budget governor through gobmk, as
// the governor-comparison experiment does.
func runBudgetGovernor(sys *sim.System) error {
	model, err := mcdvfs.NewGovernorModel()
	if err != nil {
		return err
	}
	gov, err := mcdvfs.NewBudgetGovernor(mcdvfs.BudgetGovernorConfig{
		Budget:         1.3,
		Threshold:      0.05,
		Space:          mcdvfs.CoarseSpace(),
		Model:          model,
		Search:         mcdvfs.FromPrevious,
		UseStability:   true,
		DriftTolerance: 0.25,
	})
	if err != nil {
		return err
	}
	_, err = mcdvfs.RunGovernor(sys, "gobmk", gov, mcdvfs.DefaultGovernorOverhead())
	return err
}

func unitOf(name string) string {
	for _, lm := range layerMetrics() {
		if lm.name == name {
			return lm.unit
		}
	}
	return ""
}
