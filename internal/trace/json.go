package trace

// The grid encoder: byte-identical to encoding/json, but streaming. Grids
// are the largest values the module moves — a fine grid is about 15 MB of
// JSON — so the encoder writes through one fixed buffer instead of
// building the whole body in memory the way json.Encoder does.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"mcdvfs/internal/freq"
)

// ErrNonFinite is returned by WriteJSON for a grid holding NaN or ±Inf,
// which JSON cannot represent.
var ErrNonFinite = errors.New("trace: grid holds a non-finite value")

// jsonBufSize is the encoder's write buffer: a fine grid reaches the
// writer in a few hundred writes, and no encode holds more of the body
// than this at once.
const jsonBufSize = 32 << 10

// WriteJSON serializes the grid, byte-identical to
// json.NewEncoder(w).Encode(g): the same field order and names, the same
// float formatting, and the trailing newline. A grid holding NaN or ±Inf
// is refused with ErrNonFinite before anything is written, as
// encoding/json refuses it; any other error is w's.
func (g *Grid) WriteJSON(w io.Writer) error {
	if err := g.checkFinite(); err != nil {
		return err
	}
	name, err := json.Marshal(g.Benchmark) // the one string: keep encoding/json's escaping
	if err != nil {
		return err
	}
	e := gridEncoder{bufio.NewWriterSize(w, jsonBufSize)}
	e.str(`{"benchmark":`)
	e.raw(name)
	e.str(`,"sample_instructions":`)
	e.uint(g.SampleInstr)
	e.str(`,"settings":`)
	e.settings(g.Settings)
	e.str(`,"data":`)
	e.data(g.Data)
	if g.ConvergenceFailures > 0 { // omitempty
		e.str(`,"convergence_failures":`)
		e.uint(g.ConvergenceFailures)
	}
	e.str("}\n")
	return e.w.Flush()
}

// checkFinite finds the first value JSON cannot carry.
func (g *Grid) checkFinite() error {
	for k, st := range g.Settings {
		if !finite(float64(st.CPU)) || !finite(float64(st.Mem)) {
			return fmt.Errorf("%w: setting %d is %v", ErrNonFinite, k, st)
		}
	}
	for s, row := range g.Data {
		for k, m := range row {
			if !finite(m.TimeNS) || !finite(m.CPUEnergyJ) || !finite(m.MemEnergyJ) || !finite(m.CPI) || !finite(m.MPKI) {
				return fmt.Errorf("%w: sample %d setting %d is %+v", ErrNonFinite, s, k, m)
			}
		}
	}
	return nil
}

// finite is false exactly for NaN and ±Inf.
func finite(f float64) bool { return math.Abs(f) <= math.MaxFloat64 }

// gridEncoder writes JSON tokens through a bufio.Writer. Its writes
// discard their results on purpose: bufio.Writer keeps the first write
// error, turns every later write into a no-op, and Flush returns that
// error, which is what WriteJSON reports.
type gridEncoder struct {
	w *bufio.Writer
}

func (e gridEncoder) str(s string) { _, _ = e.w.WriteString(s) }

func (e gridEncoder) raw(b []byte) { _, _ = e.w.Write(b) }

func (e gridEncoder) uint(v uint64) { e.raw(strconv.AppendUint(e.w.AvailableBuffer(), v, 10)) }

func (e gridEncoder) float(f float64) { e.raw(appendFloat(e.w.AvailableBuffer(), f)) }

func (e gridEncoder) settings(settings []freq.Setting) {
	if settings == nil {
		e.str("null")
		return
	}
	e.str("[")
	for k, st := range settings {
		if k > 0 {
			e.str(",")
		}
		e.str(`{"CPU":`)
		e.float(float64(st.CPU))
		e.str(`,"Mem":`)
		e.float(float64(st.Mem))
		e.str("}")
	}
	e.str("]")
}

func (e gridEncoder) data(data [][]Measurement) {
	if data == nil {
		e.str("null")
		return
	}
	e.str("[")
	for s, row := range data {
		if s > 0 {
			e.str(",")
		}
		e.row(row)
	}
	e.str("]")
}

// row writes one sample's measurements.
func (e gridEncoder) row(row []Measurement) {
	if row == nil {
		e.str("null")
		return
	}
	e.str("[")
	for k, m := range row {
		if k > 0 {
			e.str(",")
		}
		e.str(`{"time_ns":`)
		e.float(m.TimeNS)
		e.str(`,"cpu_energy_j":`)
		e.float(m.CPUEnergyJ)
		e.str(`,"mem_energy_j":`)
		e.float(m.MemEnergyJ)
		e.str(`,"cpi":`)
		e.float(m.CPI)
		e.str(`,"mpki":`)
		e.float(m.MPKI)
		e.str("}")
	}
	e.str("]")
}

// appendFloat appends a finite f as encoding/json formats a float64: the
// shortest decimal that round-trips, in 'f' notation except for
// magnitudes below 1e-6 or from 1e21 up, which take 'e' notation with a
// two-digit negative exponent trimmed (e-09 becomes e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
