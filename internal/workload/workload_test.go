package workload

import (
	"math"
	"testing"
)

func TestSuiteAllValid(t *testing.T) {
	for name, b := range Suite() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if b.Name != name {
			t.Errorf("registry key %q != benchmark name %q", name, b.Name)
		}
	}
}

func TestHeadlinePresent(t *testing.T) {
	suite := Suite()
	for _, name := range HeadlineNames() {
		if _, ok := suite[name]; !ok {
			t.Errorf("headline benchmark %q missing from suite", name)
		}
	}
}

func TestSuitePopulationSize(t *testing.T) {
	// The paper simulates 12 integer and 9 floating-point benchmarks; our
	// suite must be a comparable population with both classes represented.
	nInt, nFP := 0, 0
	for _, b := range Suite() {
		switch b.Class {
		case "int":
			nInt++
		case "fp":
			nFP++
		default:
			t.Errorf("%s: unknown class %q", b.Name, b.Class)
		}
	}
	if nInt < 8 || nFP < 6 {
		t.Errorf("suite population %d int + %d fp too small", nInt, nFP)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("gobmk")
	if err != nil {
		t.Fatalf("ByName(gobmk): %v", err)
	}
	if b.Name != "gobmk" {
		t.Errorf("got %q", b.Name)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustByName(unknown) did not panic")
		}
	}()
	MustByName("nonesuch")
}

func TestRealizeDeterministic(t *testing.T) {
	b := MustByName("gobmk")
	a1 := b.MustRealize()
	a2 := b.MustRealize()
	if len(a1) != len(a2) {
		t.Fatalf("lengths differ: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("sample %d differs between realizations", i)
		}
	}
}

func TestRealizeLengthMatchesNumSamples(t *testing.T) {
	for name, b := range Suite() {
		specs := b.MustRealize()
		if len(specs) != b.NumSamples() {
			t.Errorf("%s: realized %d samples, NumSamples %d", name, len(specs), b.NumSamples())
		}
		if b.Instructions() != uint64(len(specs))*SampleLen {
			t.Errorf("%s: Instructions inconsistent", name)
		}
	}
}

func TestRealizeIndicesAndInstructionCounts(t *testing.T) {
	specs := MustByName("gcc").MustRealize()
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("sample %d has index %d", i, s.Index)
		}
		if s.Instructions != SampleLen {
			t.Fatalf("sample %d has %d instructions", i, s.Instructions)
		}
		if s.PhaseName == "" {
			t.Fatalf("sample %d missing phase name", i)
		}
	}
}

func TestJitterCenteredOnPhaseMeans(t *testing.T) {
	// Across a long phase the geometric mean of realized CPI must sit close
	// to the phase's BaseCPI (log-normal jitter has median 1).
	b := MustByName("hmmer") // single 180-sample phase
	specs := b.MustRealize()
	logSum := 0.0
	for _, s := range specs {
		logSum += math.Log(s.BaseCPI)
	}
	geoMean := math.Exp(logSum / float64(len(specs)))
	want := b.Phases[0].BaseCPI
	if math.Abs(geoMean-want)/want > 0.02 {
		t.Errorf("geometric mean CPI = %v, want ~%v", geoMean, want)
	}
}

func TestRealizedValuesPhysical(t *testing.T) {
	for name, b := range Suite() {
		for _, s := range b.MustRealize() {
			if s.BaseCPI <= 0 || s.MPKI < 0 || s.MLP < 1 ||
				s.RowHitRate < 0 || s.RowHitRate > 1 ||
				s.WriteFrac < 0 || s.WriteFrac > 1 {
				t.Fatalf("%s sample %d non-physical: %+v", name, s.Index, s)
			}
		}
	}
}

func TestGobmkAlternatesRapidly(t *testing.T) {
	// The paper's gobmk changes phase every 1-2 samples; require that the
	// realized MPKI trajectory oscillates with high frequency.
	specs := MustByName("gobmk").MustRealize()
	changes := 0
	for i := 1; i < len(specs); i++ {
		if specs[i].PhaseName != specs[i-1].PhaseName {
			changes++
		}
	}
	if float64(changes) < 0.4*float64(len(specs)) {
		t.Errorf("gobmk phase changes = %d over %d samples; want rapid alternation", changes, len(specs))
	}
}

func TestBzip2IsCPUBound(t *testing.T) {
	for _, s := range MustByName("bzip2").MustRealize() {
		if s.MPKI > 2 {
			t.Fatalf("bzip2 sample %d MPKI %v; benchmark must stay CPU-bound", s.Index, s.MPKI)
		}
	}
}

func TestLbmIsMemoryBound(t *testing.T) {
	for _, s := range MustByName("lbm").MustRealize() {
		if s.MPKI < 10 {
			t.Fatalf("lbm sample %d MPKI %v; benchmark must stay memory-bound", s.Index, s.MPKI)
		}
	}
}

func TestBenchmarkLengthsInPaperRange(t *testing.T) {
	// Paper: benchmarks run to completion or 2 B instructions (200 samples).
	for name, b := range Suite() {
		n := b.NumSamples()
		if n < 40 || n > 220 {
			t.Errorf("%s: %d samples outside the paper-like range [40, 220]", name, n)
		}
	}
}

func TestValidateCatchesBadPhases(t *testing.T) {
	bad := []Phase{
		{Name: "p", Samples: 0, BaseCPI: 1, MLP: 1},
		{Name: "p", Samples: 1, BaseCPI: 0, MLP: 1},
		{Name: "p", Samples: 1, BaseCPI: 1, MPKI: -1, MLP: 1},
		{Name: "p", Samples: 1, BaseCPI: 1, MLP: 0.5},
		{Name: "p", Samples: 1, BaseCPI: 1, MLP: 1, RowHitRate: 1.5},
		{Name: "p", Samples: 1, BaseCPI: 1, MLP: 1, WriteFrac: -0.1},
		{Name: "p", Samples: 1, BaseCPI: 1, MLP: 1, CPIJitter: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad phase %d accepted: %+v", i, p)
		}
	}
}

func TestValidateCatchesBadBenchmarks(t *testing.T) {
	ok := Phase{Name: "p", Samples: 1, BaseCPI: 1, MLP: 1}
	bad := []Benchmark{
		{Name: "", Repeat: 1, Phases: []Phase{ok}},
		{Name: "x", Repeat: 0, Phases: []Phase{ok}},
		{Name: "x", Repeat: 1, Phases: nil},
		{Name: "x", Repeat: 1, Phases: []Phase{{Name: "bad", Samples: 0, BaseCPI: 1, MLP: 1}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad benchmark %d accepted", i)
		}
		if _, err := b.Realize(); err == nil {
			t.Errorf("bad benchmark %d realized", i)
		}
	}
}

// TestValidateCapsTotalSamples pins the length cap, including totals whose
// int product overflows: repeat 2^62 of a 2-sample phase once wrapped
// NumSamples negative and made Realize panic in makeslice.
func TestValidateCapsTotalSamples(t *testing.T) {
	phase := func(n int) Phase { return Phase{Name: "p", Samples: n, BaseCPI: 1, MLP: 1} }
	bad := []Benchmark{
		{Name: "overflow", Repeat: 1 << 62, Phases: []Phase{phase(2)}},
		{Name: "wide", Repeat: 1, Phases: []Phase{phase(math.MaxInt), phase(math.MaxInt)}},
		{Name: "long", Repeat: 1, Phases: []Phase{phase(MaxSamples + 1)}},
		{Name: "repeated", Repeat: MaxSamples/3 + 1, Phases: []Phase{phase(1), phase(2)}},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: %d repeats accepted", b.Name, b.Repeat)
		}
		if _, err := b.Realize(); err == nil {
			t.Errorf("%s: realized", b.Name)
		}
	}
	at := Benchmark{Name: "at-cap", Repeat: MaxSamples / 4, Phases: []Phase{phase(1), phase(3)}}
	specs, err := at.Realize()
	if err != nil || len(specs) != MaxSamples {
		t.Errorf("a benchmark of exactly MaxSamples: %d specs, %v", len(specs), err)
	}
}
