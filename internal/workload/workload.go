// Package workload provides the synthetic benchmark suite that stands in
// for the SPEC CPU2006 subset used by the paper.
//
// Every result in the paper is a function of each benchmark's per-sample
// trajectory of CPU intensity (base CPI) and memory intensity (MPKI — DRAM
// accesses per thousand instructions), sampled every 10 million user-mode
// instructions. This package models benchmarks as sequences of phases with
// those characteristics plus row-buffer locality, memory-level parallelism,
// and write mix, then realizes them into deterministic per-sample
// specifications with seeded jitter.
//
// The suite reproduces the qualitative phase structure the paper describes
// for its six headline benchmarks (bzip2, gcc, gobmk, lbm, libquantum,
// milc) and adds further integer and floating-point workloads so the suite
// size resembles the paper's 21-benchmark population.
package workload

import (
	"fmt"

	"mcdvfs/internal/rng"
)

// SampleLen is the number of instructions per measurement sample,
// matching the paper's 10-million-user-instruction sampling interval.
const SampleLen uint64 = 10_000_000

// Phase describes a contiguous region of execution with homogeneous
// average behaviour.
type Phase struct {
	// Name labels the phase for diagnostics.
	Name string
	// Samples is the phase length in measurement samples.
	Samples int
	// BaseCPI is the cycles-per-instruction the core achieves when every
	// memory access hits on-chip caches (the compute-bound floor).
	BaseCPI float64
	// MPKI is DRAM accesses (L2 misses) per thousand instructions.
	MPKI float64
	// RowHitRate is the fraction of DRAM accesses hitting an open row.
	RowHitRate float64
	// MLP is the memory-level parallelism: the average number of
	// outstanding misses a stalled core overlaps, i.e. the divisor applied
	// to exposed miss latency. Must be >= 1.
	MLP float64
	// WriteFrac is the fraction of DRAM accesses that are writes.
	WriteFrac float64
	// CPIJitter and MPKIJitter are the log-scale sigmas of per-sample
	// multiplicative jitter, modeling intra-phase variation.
	CPIJitter  float64
	MPKIJitter float64
}

// Validate reports the first non-physical field.
func (p Phase) Validate() error {
	switch {
	case p.Samples <= 0:
		return fmt.Errorf("workload: phase %q has %d samples", p.Name, p.Samples)
	case p.BaseCPI <= 0:
		return fmt.Errorf("workload: phase %q has non-positive BaseCPI", p.Name)
	case p.MPKI < 0:
		return fmt.Errorf("workload: phase %q has negative MPKI", p.Name)
	case p.RowHitRate < 0 || p.RowHitRate > 1:
		return fmt.Errorf("workload: phase %q RowHitRate outside [0,1]", p.Name)
	case p.MLP < 1:
		return fmt.Errorf("workload: phase %q MLP below 1", p.Name)
	case p.WriteFrac < 0 || p.WriteFrac > 1:
		return fmt.Errorf("workload: phase %q WriteFrac outside [0,1]", p.Name)
	case p.CPIJitter < 0 || p.MPKIJitter < 0:
		return fmt.Errorf("workload: phase %q negative jitter", p.Name)
	}
	return nil
}

// MaxSamples caps a benchmark's total length. The longest built-in
// benchmark has 200 samples; a fine grid of MaxSamples samples already
// takes about 200 MB, so Validate refuses anything longer before Realize
// allocates for it.
const MaxSamples = 10_000

// Benchmark is a named workload: a phase sequence optionally repeated.
type Benchmark struct {
	Name string
	// Class is "int" or "fp", mirroring the paper's SPEC split.
	Class string
	// Seed drives the deterministic per-sample jitter realization.
	Seed uint64
	// Phases is one iteration of the benchmark's phase structure.
	Phases []Phase
	// Repeat replays the phase sequence this many times (>= 1).
	Repeat int
}

// Validate reports the first invalid field.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark with empty name")
	}
	if b.Repeat < 1 {
		return fmt.Errorf("workload: benchmark %q Repeat %d < 1", b.Name, b.Repeat)
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("workload: benchmark %q has no phases", b.Name)
	}
	per := 0 // samples per repetition, kept within MaxSamples so no product overflows
	for _, p := range b.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("benchmark %q: %w", b.Name, err)
		}
		if p.Samples > MaxSamples-per {
			return fmt.Errorf("workload: benchmark %q exceeds %d samples", b.Name, MaxSamples)
		}
		per += p.Samples
	}
	if b.Repeat > MaxSamples/per {
		return fmt.Errorf("workload: benchmark %q exceeds %d samples (%d per repetition × %d)", b.Name, MaxSamples, per, b.Repeat)
	}
	return nil
}

// NumSamples returns the benchmark's total length in samples; for a
// benchmark that passes Validate it is at most MaxSamples.
func (b Benchmark) NumSamples() int {
	per := 0
	for _, p := range b.Phases {
		per += p.Samples
	}
	return per * b.Repeat
}

// Instructions returns the total instruction count.
func (b Benchmark) Instructions() uint64 {
	return uint64(b.NumSamples()) * SampleLen
}

// SampleSpec is the realized behaviour of one measurement sample: the
// ground truth the simulator turns into time and energy at each setting.
type SampleSpec struct {
	Index        int
	PhaseName    string
	Instructions uint64
	BaseCPI      float64
	MPKI         float64
	RowHitRate   float64
	MLP          float64
	WriteFrac    float64
}

// Realize expands the benchmark into its per-sample specifications.
// Realization is deterministic: the jitter stream for sample i depends only
// on (Seed, i), never on evaluation order.
func (b Benchmark) Realize() ([]SampleSpec, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(b.Seed)
	specs := make([]SampleSpec, 0, b.NumSamples())
	idx := 0
	for r := 0; r < b.Repeat; r++ {
		for _, p := range b.Phases {
			for s := 0; s < p.Samples; s++ {
				src := root.Derive(uint64(idx))
				specs = append(specs, SampleSpec{
					Index:        idx,
					PhaseName:    p.Name,
					Instructions: SampleLen,
					BaseCPI:      p.BaseCPI * src.LogNormFactor(p.CPIJitter),
					MPKI:         p.MPKI * src.LogNormFactor(p.MPKIJitter),
					RowHitRate:   p.RowHitRate,
					MLP:          p.MLP,
					WriteFrac:    p.WriteFrac,
				})
				idx++
			}
		}
	}
	return specs, nil
}

// MustRealize is Realize for registry benchmarks; it panics on error.
func (b Benchmark) MustRealize() []SampleSpec {
	specs, err := b.Realize()
	if err != nil {
		panic(err)
	}
	return specs
}
