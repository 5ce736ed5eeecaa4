package dut

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/testgen"
)

// Geometry describes the banked memory array. Every dimension is a power
// of two, so an address is a plain bit field (see Decode).
type Geometry struct {
	Banks int // number of banks
	Rows  int // rows per bank
	Cols  int // words per row
}

// DefaultGeometry is the 4-bank, 4096-word array used throughout the
// experiments (4 banks × 64 rows × 16 words).
func DefaultGeometry() Geometry {
	return Geometry{Banks: 4, Rows: 64, Cols: 16}
}

// Words returns the total number of addressable words.
func (g Geometry) Words() uint32 {
	return uint32(g.Banks * g.Rows * g.Cols)
}

// AddrBits returns the number of significant address bits.
func (g Geometry) AddrBits() int {
	return bits.Len32(g.Words() - 1)
}

// Decode splits a flat word address into bank, row and column indices.
// Layout: column bits are lowest, then row, then bank, which makes
// sequential addresses walk along a row (realistic burst behaviour). The
// dimensions are powers of two (Validate), so each index is a masked
// shift; address bits above the bank field are ignored.
func (g Geometry) Decode(addr uint32) (bank, row, col int) {
	colBits := bits.TrailingZeros(uint(g.Cols))
	rowBits := bits.TrailingZeros(uint(g.Rows))
	col = int(addr) & (g.Cols - 1)
	row = int(addr>>colBits) & (g.Rows - 1)
	bank = int(addr>>(colBits+rowBits)) & (g.Banks - 1)
	return bank, row, col
}

// Validate reports an error for degenerate geometries and for dimensions
// that are not powers of two.
func (g Geometry) Validate() error {
	for _, n := range [...]int{g.Banks, g.Rows, g.Cols} {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("dut: invalid geometry %+v (dimensions must be positive powers of two)", g)
		}
	}
	return nil
}

// Activity aggregates the switching activity a test sequence provoked while
// executing on the array. All densities are normalized to [0, 1]. The
// parametric layer maps Activity onto timing parameters; higher activity
// means more supply noise and smaller margins.
type Activity struct {
	Cycles int

	ATDMean float64 // mean address-transition density (per address bit)
	ATDPeak float64 // peak windowed address-transition density

	ToggleMean float64 // mean data-bus toggle density
	TogglePeak float64 // peak windowed data-bus toggle density

	SSNPeak float64 // peak windowed simultaneous-switching activity
	SSNMean float64 // mean simultaneous-switching activity
	// SSNSustained is the peak mean simultaneous-switching activity over a
	// long (sustainWindow-cycle) window: the supply network rides out short
	// bursts on its decoupling capacitance, so only *sustained* coincident
	// address/data switching collapses the sense margin. This is the term
	// that gates the weakness ridge.
	SSNSustained float64

	BankConflictRate float64 // same-bank different-row back-to-back accesses
	CouplingScore    float64 // adjacent-column complementary-data writes
	ReadRatio        float64 // fraction of read cycles
	RowHammer        float64 // repeated activation concentration on one row
}

// FunctionalResult reports functional (value) failures observed during
// execution — corrupted reads from weak cells under low effective supply.
type FunctionalResult struct {
	ReadCount     int
	Mismatches    int      // number of corrupted reads
	FirstMismatch int      // cycle index of first corrupted read (-1 if none)
	FailingAddrs  []uint32 // unique failing addresses, in first-seen order
}

// Failed reports whether any read returned corrupted data.
func (r FunctionalResult) Failed() bool { return r.Mismatches > 0 }

// Memory is the functional banked SRAM array. It executes sequences and
// records activity. Memory is not safe for concurrent use; each goroutine
// should own its Device.
type Memory struct {
	geom  Geometry
	words []uint32 // logical array followed by the spare-row region
	die   *Die

	// lastRowInBank tracks the open row per bank for conflict detection.
	lastRowInBank []int

	// Row-redundancy state (repair.go). Repairs survive Reset — they model
	// permanent eFuse/laser repair, not volatile configuration.
	rowRemap   map[int]uint32
	sparesUsed []int

	// Per-execution activation counts, dense over bank*Rows+row, and the
	// slots the current execution touched, so clearing costs O(touched).
	rowHits []int32
	rowsHit []int32
}

// NewMemory allocates a zero-initialized array over the given geometry.
func NewMemory(geom Geometry, die *Die) (*Memory, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if die == nil {
		return nil, fmt.Errorf("dut: nil die")
	}
	m := &Memory{
		geom:          geom,
		words:         make([]uint32, int(geom.Words())+geom.Banks*SpareRowsPerBank*geom.Cols),
		die:           die,
		lastRowInBank: make([]int, geom.Banks),
		sparesUsed:    make([]int, geom.Banks),
		rowHits:       make([]int32, geom.Banks*geom.Rows),
	}
	for i := range m.lastRowInBank {
		m.lastRowInBank[i] = -1
	}
	return m, nil
}

// Geometry returns the array geometry.
func (m *Memory) Geometry() Geometry { return m.geom }

// Retarget points the array at a different die, clearing contents, open-row
// state and — because repairs are per-die eFuse state — any row remaps.
// Retargeting reuses the word array, so a worker screening a stream of dies
// pays the O(words) allocation once instead of per die.
func (m *Memory) Retarget(die *Die) error {
	if die == nil {
		return fmt.Errorf("dut: nil die")
	}
	m.die = die
	m.rowRemap = nil
	for i := range m.sparesUsed {
		m.sparesUsed[i] = 0
	}
	m.Reset()
	return nil
}

// Reset clears the array contents and the open-row state.
func (m *Memory) Reset() {
	for i := range m.words {
		m.words[i] = 0
	}
	for i := range m.lastRowInBank {
		m.lastRowInBank[i] = -1
	}
}

// activityWindow is the droop-integration window in cycles: peak statistics
// are computed over sliding windows of this length, mirroring the supply
// network's fast time constant. Both window lengths are powers of two: the
// ring indices are masked and the full-window means divide exactly.
const activityWindow = 8

// sustainWindow is the long integration window for SSNSustained: the
// decoupling network absorbs bursts shorter than this.
const sustainWindow = 64

// CycleRecord is one bus cycle of an execution trace — the raw material
// for circuit-level analysis of a worst-case test (per-cycle switching and
// the exact cycle a read corrupted).
type CycleRecord struct {
	Cycle     int
	Op        testgen.OpKind
	Addr      uint32
	Bank      int
	Row       int
	Col       int
	Bus       uint32  // value on the data bus this cycle
	ATD       float64 // address-transition density of this cycle
	Toggle    float64 // data-bus toggle density of this cycle
	SSN       float64 // coincident switching of this cycle
	Corrupted bool    // read returned corrupted data (weak cell)
}

// Execute runs the sequence at the given effective supply voltage and
// returns the provoked activity plus functional results. Weak-cell reads
// corrupt when vddEff is below the cell's threshold; all other behaviour is
// ideal SRAM semantics (reads return the last written value, initially 0).
func (m *Memory) Execute(seq testgen.Sequence, vddEff float64) (Activity, FunctionalResult) {
	return m.ExecuteObserved(seq, vddEff, nil)
}

// ExecuteObserved is Execute with a per-cycle observer; observe may be nil.
func (m *Memory) ExecuteObserved(seq testgen.Sequence, vddEff float64, observe func(CycleRecord)) (Activity, FunctionalResult) {
	var act Activity
	fr := FunctionalResult{FirstMismatch: -1}
	if len(seq) == 0 {
		return act, fr
	}

	addrBits := float64(m.geom.AddrBits())
	addrMask := m.geom.Words() - 1
	weak := m.die.WeakCellCount() > 0
	for _, slot := range m.rowsHit {
		m.rowHits[slot] = 0
	}
	m.rowsHit = m.rowsHit[:0]

	var (
		prevAddr      uint32
		prevBus       uint32 // last value seen on the data bus (read or write)
		prevWrote     uint32
		prevWroteAddr uint32
		havePrev      bool
		haveWrite     bool

		atdSum, togSum, ssnSum    float64
		atdPeak, togPeak, ssnPeak float64
		conflicts, reads          int
		coupling                  float64
		winATD, winTog, winSSN    [activityWindow]float64
		sumATDw, sumTogw, sumSSNw float64
		wIdx                      int
		winSus                    [sustainWindow]float64
		sumSus                    float64
		susIdx                    int
		ssnSustained              float64
	)

	for i, v := range seq {
		addr := v.Addr & addrMask
		bank, row, col := m.geom.Decode(addr)

		atd := 0.0
		if havePrev && v.Op != testgen.OpNop {
			atd = float64(bits.OnesCount32(prevAddr^addr)) / addrBits
		}

		var bus uint32
		tog := 0.0
		corrupted := false
		switch v.Op {
		case testgen.OpWrite:
			bus = v.Data
			m.words[m.physical(addr)] = v.Data
			if haveWrite {
				// Bitline coupling: adjacent-column write with near-complementary data.
				flips := bits.OnesCount32(prevWrote ^ v.Data)
				dAddr := int64(addr) - int64(prevWroteAddr)
				if dAddr < 0 {
					dAddr = -dAddr
				}
				if flips >= 24 && dAddr >= 1 && dAddr <= 2 {
					coupling++
				}
			}
			prevWrote = v.Data
			prevWroteAddr = addr
			haveWrite = true
		case testgen.OpRead:
			reads++
			fr.ReadCount++
			phys := m.physical(addr)
			data := m.words[phys]
			if weak {
				if th, ok := m.die.WeakCellThreshold(phys); ok && vddEff < th {
					data ^= 1 << (addr % 32) // single-bit corruption
					corrupted = true
					fr.Mismatches++
					if fr.FirstMismatch < 0 {
						fr.FirstMismatch = i
					}
					// At most one entry per weak cell, so a scan dedupes.
					if !slices.Contains(fr.FailingAddrs, addr) {
						fr.FailingAddrs = append(fr.FailingAddrs, addr)
					}
				}
			}
			bus = data
		default: // OpNop: bus holds
			bus = prevBus
		}
		if havePrev && v.Op != testgen.OpNop {
			tog = float64(bits.OnesCount32(prevBus^bus)) / 32.0
		}

		ssn := atd * tog

		atdSum += atd
		togSum += tog
		ssnSum += ssn

		// Sliding-window peaks.
		sumATDw += atd - winATD[wIdx]
		winATD[wIdx] = atd
		sumTogw += tog - winTog[wIdx]
		winTog[wIdx] = tog
		sumSSNw += ssn - winSSN[wIdx]
		winSSN[wIdx] = ssn
		wIdx = (wIdx + 1) & (activityWindow - 1)
		var atdW, togW, ssnW float64
		if i+1 >= activityWindow {
			atdW, togW, ssnW = sumATDw/activityWindow, sumTogw/activityWindow, sumSSNw/activityWindow
		} else {
			wlen := float64(i + 1)
			atdW, togW, ssnW = sumATDw/wlen, sumTogw/wlen, sumSSNw/wlen
		}
		if atdW > atdPeak {
			atdPeak = atdW
		}
		if togW > togPeak {
			togPeak = togW
		}
		if ssnW > ssnPeak {
			ssnPeak = ssnW
		}
		sumSus += ssn - winSus[susIdx]
		winSus[susIdx] = ssn
		susIdx = (susIdx + 1) & (sustainWindow - 1)
		if i+1 >= sustainWindow/2 { // ignore the warm-up transient
			var sus float64
			if i+1 >= sustainWindow {
				sus = sumSus / sustainWindow
			} else {
				sus = sumSus / float64(i+1)
			}
			if sus > ssnSustained {
				ssnSustained = sus
			}
		}

		if observe != nil {
			observe(CycleRecord{
				Cycle: i, Op: v.Op, Addr: addr,
				Bank: bank, Row: row, Col: col,
				Bus: bus, ATD: atd, Toggle: tog, SSN: ssn,
				Corrupted: corrupted,
			})
		}

		// Bank conflict: back-to-back access to the same bank, different row.
		if v.Op != testgen.OpNop {
			if last := m.lastRowInBank[bank]; last >= 0 && last != row {
				conflicts++
			}
			m.lastRowInBank[bank] = row
			slot := int32(bank*m.geom.Rows + row)
			if m.rowHits[slot] == 0 {
				m.rowsHit = append(m.rowsHit, slot)
			}
			m.rowHits[slot]++
		}

		prevAddr = addr
		prevBus = bus
		havePrev = true
	}

	n := float64(len(seq))
	act.Cycles = len(seq)
	act.ATDMean = atdSum / n
	act.ATDPeak = clamp01(atdPeak)
	act.ToggleMean = togSum / n
	act.TogglePeak = clamp01(togPeak)
	act.SSNMean = ssnSum / n
	act.SSNPeak = clamp01(ssnPeak)
	act.SSNSustained = clamp01(ssnSustained)
	act.BankConflictRate = float64(conflicts) / n
	act.CouplingScore = clamp01(coupling / n * 4)
	act.ReadRatio = float64(reads) / n
	var maxRow int32
	for _, slot := range m.rowsHit {
		maxRow = max(maxRow, m.rowHits[slot])
	}
	act.RowHammer = clamp01(float64(maxRow) / n)
	return act, fr
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
