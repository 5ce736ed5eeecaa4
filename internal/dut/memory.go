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

	// Per-execution activation counts, dense over bank*Rows+row, cleared
	// at the start of each execution.
	rowHits []int32
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
// network's fast time constant. Both window lengths are powers of two, so
// the ring indices are masked.
const activityWindow = 8

// sustainWindow is the long integration window for SSNSustained: the
// decoupling network absorbs bursts shorter than this.
const sustainWindow = 64

// winLCM is the least common multiple of the window lengths 1 to
// activityWindow, and winScale[l-1] is winLCM/l: a window sum of length l
// scaled by it is winLCM times the window's mean, so the warm-up windows
// and the full ones compare as integers.
const winLCM = 840

var winScale = func() (s [activityWindow]int) {
	for l := range s {
		s[l] = winLCM / (l + 1)
	}
	return s
}()

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

// Execute is ExecuteObserved without an observer.
func (m *Memory) Execute(seq testgen.Sequence, vddEff float64) (Activity, FunctionalResult, bool) {
	return m.ExecuteObserved(seq, vddEff, nil)
}

// ExecuteObserved runs the sequence at the given effective supply voltage
// and returns the provoked activity plus functional results; observe, when
// non-nil, sees every cycle. Weak-cell reads corrupt when vddEff is below
// the cell's threshold; all other behaviour is ideal SRAM semantics (reads
// return the last written value, initially 0), with addresses wrapped to
// the array. ok reports whether testgen.Sequence.Validate accepts the
// sequence for this array: it is false for an empty sequence, an op above
// OpRead, which executes as a cycle that holds the bus, and a non-NOP
// address past the array.
//
// Activity is counted in integers. A cycle's ATD, toggle and SSN are the
// bit counts ka = popcount(prevAddr^addr) and kt = popcount(prevBus^bus)
// and their product over addrBits, 32 and 32·addrBits; the sums and the
// sliding windows hold the counts, window peaks compare exactly, and each
// density is one division of integers below 2^53 at the end, so it is the
// float64 nearest the exact ratio.
func (m *Memory) ExecuteObserved(seq testgen.Sequence, vddEff float64, observe func(CycleRecord)) (act Activity, fr FunctionalResult, ok bool) {
	fr.FirstMismatch = -1
	if len(seq) == 0 {
		return act, fr, false
	}

	// Decode's fields, worked out once. addr is masked to the array, so
	// addr>>colShift is bank*Rows+row, the rowHits slot, and
	// addr>>bankShift is the bank.
	addrBits := m.geom.AddrBits()
	addrMask := m.geom.Words() - 1
	colShift := bits.TrailingZeros(uint(m.geom.Cols))
	bankShift := colShift + bits.TrailingZeros(uint(m.geom.Rows))
	colMask, rowMask := uint32(m.geom.Cols-1), uint32(m.geom.Rows-1)
	weak := m.die.WeakCellCount() > 0
	remapped := len(m.rowRemap) > 0
	clear(m.rowHits)

	var (
		prevAddr, prevBus, prevWrote uint32
		prevWroteAddr                = int64(-3) // before any write: 3+ words from every address

		invalid                    bool
		reads, conflicts, coupling int
		maxRow                     int32

		sumA, sumT, sumS    int // numerators of the means
		winA, winT, winS    [activityWindow]int
		wA, wT, wS          int // window sums
		peakA, peakT, peakS int // peak window sums scaled by winScale
		winSus              [sustainWindow]int
		sus                 int
		susPeak, susLen     = 0, 1 // the peak sustained window as sum over length
	)

	for i, v := range seq {
		op := v.Op
		addr := v.Addr & addrMask
		if op > testgen.OpRead || op != testgen.OpNop && v.Addr != addr {
			invalid = true
		}
		active, isWrite, isRead := op != testgen.OpNop, op == testgen.OpWrite, op == testgen.OpRead
		bank, row := int(addr>>bankShift), int(addr>>colShift&rowMask)

		// The bus and the stored word, selected without a branch: which op
		// comes next is a coin flip.
		phys := addr
		if remapped {
			phys = m.physical(addr)
		}
		word := m.words[phys]
		bus := prevBus
		if isRead {
			bus = word
		}
		if isWrite {
			word, bus = v.Data, v.Data
		}
		m.words[phys] = word
		corrupted := false
		if weak && isRead {
			if th, ok := m.die.WeakCellThreshold(phys); ok && vddEff < th {
				bus ^= 1 << (addr % 32) // single-bit corruption
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
		reads += b2i(isRead)

		// Bitline coupling: adjacent-column write with near-complementary data.
		d := int64(addr) - prevWroteAddr
		coupling += b2i(isWrite) & b2i(bits.OnesCount32(prevWrote^v.Data) >= 24) & b2i(d != 0) & b2i(uint64(d+2) <= 4)
		if isWrite {
			prevWrote, prevWroteAddr = v.Data, int64(addr)
		}

		// Bank conflict: back-to-back access to the same bank, different row.
		last := m.lastRowInBank[bank]
		conflicts += b2i(active) & b2i(last >= 0) & b2i(last != row)
		if active {
			last = row
		}
		m.lastRowInBank[bank] = last
		slot := addr >> colShift
		hits := m.rowHits[slot] + int32(b2i(active))
		m.rowHits[slot] = hits
		maxRow = max(maxRow, hits)

		// Switching counts; the first cycle and NOPs switch nothing.
		live := b2i(active) & b2i(i > 0)
		ka := bits.OnesCount32(prevAddr^addr) * live
		kt := bits.OnesCount32(prevBus^bus) * live
		ks := ka * kt
		sumA += ka
		sumT += kt
		sumS += ks

		// Sliding-window peaks.
		w := i & (activityWindow - 1)
		wA += ka - winA[w]
		winA[w] = ka
		wT += kt - winT[w]
		winT[w] = kt
		wS += ks - winS[w]
		winS[w] = ks
		scale := winScale[min(i, activityWindow-1)]
		peakA = max(peakA, wA*scale)
		peakT = max(peakT, wT*scale)
		peakS = max(peakS, wS*scale)
		s := i & (sustainWindow - 1)
		sus += ks - winSus[s]
		winSus[s] = ks
		if i+1 >= sustainWindow/2 { // ignore the warm-up transient
			if l := min(i+1, sustainWindow); sus*susLen > susPeak*l {
				susPeak, susLen = sus, l
			}
		}

		if observe != nil {
			atd, tog := float64(ka)/float64(addrBits), float64(kt)/32
			observe(CycleRecord{
				Cycle: i, Op: op, Addr: addr,
				Bank: bank, Row: row, Col: int(addr & colMask),
				Bus: bus, ATD: atd, Toggle: tog, SSN: atd * tog,
				Corrupted: corrupted,
			})
		}

		prevAddr = addr
		prevBus = bus
	}

	n := len(seq)
	fr.ReadCount = reads
	return Activity{
		Cycles:           n,
		ATDMean:          float64(sumA) / float64(n*addrBits),
		ATDPeak:          float64(peakA) / float64(winLCM*addrBits),
		ToggleMean:       float64(sumT) / float64(n*32),
		TogglePeak:       float64(peakT) / float64(winLCM*32),
		SSNMean:          float64(sumS) / float64(n*32*addrBits),
		SSNPeak:          float64(peakS) / float64(winLCM*32*addrBits),
		SSNSustained:     float64(susPeak) / float64(susLen*32*addrBits),
		BankConflictRate: float64(conflicts) / float64(n),
		CouplingScore:    clamp01(float64(coupling) / float64(n) * 4),
		ReadRatio:        float64(reads) / float64(n),
		RowHammer:        float64(maxRow) / float64(n),
	}, fr, !invalid
}

// b2i is 1 for true and 0 for false. The compiler sets it from a flag, so
// the kernel's data-dependent counts take no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
