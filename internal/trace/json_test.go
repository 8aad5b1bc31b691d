package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// encodingJSON is the reference WriteJSON must reproduce byte for byte.
func encodingJSON(t *testing.T, g *Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

func writeJSON(t *testing.T, g *Grid) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// assertSameBytes reports the first differing offset with context.
func assertSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Fatalf("%s: WriteJSON differs from encoding/json at byte %d of %d/%d:\n got  %q\n want %q",
		what, i, len(got), len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// TestWriteJSONMatchesEncodingJSON pins the streaming encoder to
// encoding/json on every built-in benchmark in both spaces, with the
// omitempty convergence count both absent and present.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	sys := sim.MustNew(sim.DefaultConfig())
	spaces := map[string]*freq.Space{"coarse": freq.CoarseSpace(), "fine": freq.FineSpace()}
	for spaceName, space := range spaces {
		for _, name := range workload.Names() {
			t.Run(name+"/"+spaceName, func(t *testing.T) {
				t.Parallel()
				g, err := CollectContext(context.Background(), sys, workload.MustByName(name), space, CollectOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, failures := range []uint64{0, 3} {
					g.ConvergenceFailures = failures
					assertSameBytes(t, fmt.Sprintf("convergence_failures %d", failures), writeJSON(t, g), encodingJSON(t, g))
				}
			})
		}
	}
}

// TestWriteJSONEdgeShapes covers what collected grids never hold: nil and
// empty slices, a nil row, escaped names, and every float-format branch.
func TestWriteJSONEdgeShapes(t *testing.T) {
	cell := Measurement{TimeNS: 1e21, CPUEnergyJ: 1e-7, MemEnergyJ: math.Copysign(0, -1), CPI: 5e-324, MPKI: 123456789.125}
	grids := map[string]*Grid{
		"zero":         {},
		"empty slices": {Benchmark: "x", Settings: []freq.Setting{}, Data: [][]Measurement{}},
		"nil row":      {Benchmark: "x", Settings: []freq.Setting{{CPU: 100, Mem: 200}}, Data: [][]Measurement{nil, {}}},
		"escapes":      {Benchmark: "<a&b>\"\\\n\u2028é\xff", SampleInstr: math.MaxUint64},
		"floats": {
			Benchmark:           "f",
			Settings:            []freq.Setting{{CPU: 1e-6, Mem: 9.999999999999999e20}, {CPU: -1e-9, Mem: -2.5e-300}},
			Data:                [][]Measurement{{cell, {TimeNS: 0.1, CPUEnergyJ: 1.7976931348623157e308}}},
			ConvergenceFailures: 1,
		},
	}
	for what, g := range grids {
		assertSameBytes(t, what, writeJSON(t, g), encodingJSON(t, g))
	}
}

// TestWriteJSONRefusesNonFinite checks that a NaN or ±Inf anywhere fails
// the encode before any byte reaches the writer.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, g := range []*Grid{
			{Benchmark: "s", Settings: []freq.Setting{{CPU: freq.MHz(bad), Mem: 200}}},
			{Benchmark: "d", Data: [][]Measurement{{{TimeNS: 1}, {MPKI: bad}}}},
		} {
			var buf bytes.Buffer
			err := g.WriteJSON(&buf)
			if !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s with %v: err = %v, want ErrNonFinite", g.Benchmark, bad, err)
			}
			if buf.Len() > 0 {
				t.Errorf("%s with %v: %d bytes written before the error", g.Benchmark, bad, buf.Len())
			}
		}
	}
}

// failingWriter accepts limit bytes, then fails every write.
type failingWriter struct{ limit int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errWriterFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestWriteJSONReturnsWriteErrors: a failing writer's error surfaces from
// WriteJSON whether it strikes mid-stream or at the final flush.
func TestWriteJSONReturnsWriteErrors(t *testing.T) {
	g := collectSmall(t)
	size := len(writeJSON(t, g))
	for _, limit := range []int{0, jsonBufSize + 7, size - 1} {
		if err := g.WriteJSON(&failingWriter{limit: limit}); !errors.Is(err, errWriterFull) {
			t.Errorf("limit %d of %d: err = %v, want the writer's error", limit, size, err)
		}
	}
}

// FuzzWriteJSON compares the streaming encoder with encoding/json on
// arbitrary names and float values: identical bytes when encoding/json
// succeeds, an error from both when it does not (NaN, ±Inf).
func FuzzWriteJSON(f *testing.F) {
	f.Add("gobmk", uint64(0), 1.25e6, 3.1e-4, 9.5e-5, 1.7, 12.5, 1000.0, 800.0)
	f.Fuzz(func(t *testing.T, name string, failures uint64, timeNS, cpuJ, memJ, cpi, mpki, cpuMHz, memMHz float64) {
		m := Measurement{TimeNS: timeNS, CPUEnergyJ: cpuJ, MemEnergyJ: memJ, CPI: cpi, MPKI: mpki}
		g := &Grid{
			Benchmark:           name,
			SampleInstr:         failures ^ workload.SampleLen,
			Settings:            []freq.Setting{{CPU: freq.MHz(cpuMHz), Mem: freq.MHz(memMHz)}, {CPU: freq.MHz(memMHz), Mem: freq.MHz(cpuMHz)}},
			Data:                [][]Measurement{{m, {TimeNS: cpi, CPUEnergyJ: mpki, MemEnergyJ: timeNS, CPI: cpuJ, MPKI: memJ}}},
			ConvergenceFailures: failures,
		}
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(g)
		var got bytes.Buffer
		gotErr := g.WriteJSON(&got)
		switch {
		case wantErr != nil && gotErr != nil:
			if got.Len() > 0 {
				t.Fatalf("%d bytes written before the error %v", got.Len(), gotErr)
			}
		case wantErr != nil || gotErr != nil:
			t.Fatalf("encoding/json err %v, WriteJSON err %v", wantErr, gotErr)
		default:
			assertSameBytes(t, "fuzz", got.Bytes(), want.Bytes())
		}
	})
}
