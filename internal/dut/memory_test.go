package dut

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/testgen"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	m, err := NewMemory(DefaultGeometry(), NewDie(0, CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGeometryWordsAndBits(t *testing.T) {
	g := DefaultGeometry()
	if g.Words() != 4096 {
		t.Errorf("default geometry words = %d, want 4096", g.Words())
	}
	if g.AddrBits() != 12 {
		t.Errorf("default geometry addr bits = %d, want 12", g.AddrBits())
	}
}

func TestGeometryDecode(t *testing.T) {
	g := Geometry{Banks: 4, Rows: 64, Cols: 16}
	bank, row, col := g.Decode(0)
	if bank != 0 || row != 0 || col != 0 {
		t.Errorf("Decode(0) = %d,%d,%d", bank, row, col)
	}
	// Address 16 is the start of row 1 (cols are lowest bits).
	bank, row, col = g.Decode(16)
	if bank != 0 || row != 1 || col != 0 {
		t.Errorf("Decode(16) = %d,%d,%d, want bank 0 row 1 col 0", bank, row, col)
	}
	// One full bank is 64*16 = 1024 words.
	bank, row, col = g.Decode(1024)
	if bank != 1 || row != 0 || col != 0 {
		t.Errorf("Decode(1024) = %d,%d,%d, want bank 1", bank, row, col)
	}
}

func TestGeometryDecodeProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(a uint32) bool {
		addr := a % g.Words()
		bank, row, col := g.Decode(addr)
		recon := uint32(bank*g.Rows*g.Cols + row*g.Cols + col)
		return recon == addr &&
			bank >= 0 && bank < g.Banks &&
			row >= 0 && row < g.Rows &&
			col >= 0 && col < g.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refDecode is Decode's div/mod form, which holds for any dimensions.
func refDecode(g Geometry, addr uint32) (bank, row, col int) {
	col = int(addr) % g.Cols
	row = (int(addr) / g.Cols) % g.Rows
	bank = (int(addr) / (g.Cols * g.Rows)) % g.Banks
	return bank, row, col
}

func TestGeometryDecodeMatchesDivMod(t *testing.T) {
	for _, g := range []Geometry{DefaultGeometry(), {Banks: 1, Rows: 2, Cols: 1}, {Banks: 8, Rows: 32, Cols: 4}} {
		// Twice the array, so addresses past the bank field are covered too.
		for addr := uint32(0); addr < 2*g.Words(); addr++ {
			b, r, c := g.Decode(addr)
			wb, wr, wc := refDecode(g, addr)
			if b != wb || r != wr || c != wc {
				t.Fatalf("%+v Decode(%d) = %d,%d,%d, div/mod gives %d,%d,%d", g, addr, b, r, c, wb, wr, wc)
			}
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{Banks: 0, Rows: 1, Cols: 1}).Validate(); err == nil {
		t.Error("zero-bank geometry accepted")
	}
	for _, g := range []Geometry{{Banks: 3, Rows: 64, Cols: 16}, {Banks: 4, Rows: 48, Cols: 16}, {Banks: 4, Rows: 64, Cols: 12}} {
		if err := g.Validate(); err == nil {
			t.Errorf("non-power-of-two geometry %+v accepted", g)
		}
		if _, err := NewMemory(g, NewDie(0, CornerTypical)); err == nil {
			t.Errorf("NewMemory accepted non-power-of-two geometry %+v", g)
		}
	}
	if err := DefaultGeometry().Validate(); err != nil {
		t.Errorf("default geometry rejected: %v", err)
	}
}

func TestNewMemoryErrors(t *testing.T) {
	if _, err := NewMemory(Geometry{}, NewDie(0, CornerTypical)); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := NewMemory(DefaultGeometry(), nil); err == nil {
		t.Error("nil die accepted")
	}
}

func TestMemoryReadAfterWrite(t *testing.T) {
	m := testMemory(t)
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 7, Data: 0xCAFEBABE},
		{Op: testgen.OpRead, Addr: 7},
	}
	_, fr := m.Execute(seq, 1.8)
	if fr.Failed() {
		t.Error("clean read-after-write reported functional failure")
	}
	if got := peek(m, 7); got != 0xCAFEBABE {
		t.Errorf("stored word = %08X", got)
	}
}

func TestMemoryResetClears(t *testing.T) {
	m := testMemory(t)
	poke(m, 5, 123)
	m.Reset()
	if peek(m, 5) != 0 {
		t.Error("Reset did not clear contents")
	}
}

func TestActivityEmptySequence(t *testing.T) {
	m := testMemory(t)
	act, fr := m.Execute(nil, 1.8)
	if act.Cycles != 0 {
		t.Errorf("empty sequence cycles = %d", act.Cycles)
	}
	if fr.Failed() {
		t.Error("empty sequence failed")
	}
}

func TestActivityRangesProperty(t *testing.T) {
	m := testMemory(t)
	gen := testgen.NewRandomGenerator(31, m.Geometry().Words(), testgen.DefaultConditionLimits())
	for i := 0; i < 50; i++ {
		m.Reset()
		act, _ := m.Execute(gen.Next().Seq, 1.8)
		check := func(name string, v float64) {
			if v < 0 || v > 1 {
				t.Fatalf("test %d: %s = %g outside [0,1]", i, name, v)
			}
		}
		check("ATDMean", act.ATDMean)
		check("ATDPeak", act.ATDPeak)
		check("ToggleMean", act.ToggleMean)
		check("TogglePeak", act.TogglePeak)
		check("SSNMean", act.SSNMean)
		check("SSNPeak", act.SSNPeak)
		check("SSNSustained", act.SSNSustained)
		check("CouplingScore", act.CouplingScore)
		check("ReadRatio", act.ReadRatio)
		check("RowHammer", act.RowHammer)
		if act.ATDPeak < act.ATDMean-1e-9 {
			t.Fatalf("test %d: ATD peak %g below mean %g", i, act.ATDPeak, act.ATDMean)
		}
		if act.SSNPeak < act.SSNSustained-1e-9 {
			t.Fatalf("test %d: 8-cycle SSN peak %g below 64-cycle sustained %g", i, act.SSNPeak, act.SSNSustained)
		}
	}
}

func TestIdleSequenceHasNoActivity(t *testing.T) {
	m := testMemory(t)
	seq := make(testgen.Sequence, 100) // all NOPs
	act, _ := m.Execute(seq, 1.8)
	if act.ATDMean != 0 || act.ToggleMean != 0 || act.SSNPeak != 0 {
		t.Errorf("idle bus has activity: %+v", act)
	}
}

func TestPingPongMaximizesATD(t *testing.T) {
	m := testMemory(t)
	words := m.Geometry().Words()
	seq := make(testgen.Sequence, 200)
	for i := range seq {
		addr := uint32(0)
		if i%2 == 1 {
			addr = words - 1 // all address bits flip
		}
		seq[i] = testgen.Vector{Op: testgen.OpRead, Addr: addr}
	}
	act, _ := m.Execute(seq, 1.8)
	if act.ATDMean < 0.99 {
		t.Errorf("complementary ping-pong ATD mean = %g, want ≈1", act.ATDMean)
	}
}

func TestCouplingScoreDetectsAdjacentComplementaryWrites(t *testing.T) {
	m := testMemory(t)
	seq := make(testgen.Sequence, 200)
	for i := range seq {
		d := uint32(0)
		if i%2 == 1 {
			d = 0xFFFFFFFF
		}
		seq[i] = testgen.Vector{Op: testgen.OpWrite, Addr: uint32(i % 2), Data: d}
	}
	act, _ := m.Execute(seq, 1.8)
	if act.CouplingScore < 0.99 {
		t.Errorf("adjacent complementary writes coupling = %g, want ≈1", act.CouplingScore)
	}

	// The same data written to the same single address must not couple.
	for i := range seq {
		seq[i].Addr = 0
	}
	m.Reset()
	act, _ = m.Execute(seq, 1.8)
	if act.CouplingScore != 0 {
		t.Errorf("same-address writes coupling = %g, want 0", act.CouplingScore)
	}
}

func TestBankConflictDetection(t *testing.T) {
	m := testMemory(t)
	g := m.Geometry()
	// Alternate between row 0 and row 1 of bank 0: every access conflicts.
	seq := make(testgen.Sequence, 100)
	for i := range seq {
		addr := uint32(0)
		if i%2 == 1 {
			addr = uint32(g.Cols) // row 1, same bank
		}
		seq[i] = testgen.Vector{Op: testgen.OpRead, Addr: addr}
	}
	act, _ := m.Execute(seq, 1.8)
	if act.BankConflictRate < 0.9 {
		t.Errorf("same-bank row ping-pong conflict rate = %g, want ≈1", act.BankConflictRate)
	}

	// Alternate between two banks, same row: no conflicts.
	for i := range seq {
		addr := uint32(0)
		if i%2 == 1 {
			addr = uint32(g.Rows * g.Cols) // bank 1, row 0
		}
		seq[i].Addr = addr
	}
	m.Reset()
	act, _ = m.Execute(seq, 1.8)
	if act.BankConflictRate != 0 {
		t.Errorf("alternating-bank conflict rate = %g, want 0", act.BankConflictRate)
	}
}

func TestWeakCellCorruptsOnlyBelowThreshold(t *testing.T) {
	die := NewDie(0, CornerTypical, WithWeakCell(9, 1.6))
	m, err := NewMemory(DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 9, Data: 0x12345678},
		{Op: testgen.OpRead, Addr: 9},
	}
	_, fr := m.Execute(seq, 1.8)
	if fr.Failed() {
		t.Error("weak cell corrupted above its threshold")
	}
	m.Reset()
	_, fr = m.Execute(seq, 1.5)
	if !fr.Failed() {
		t.Fatal("weak cell did not corrupt below its threshold")
	}
	if fr.Mismatches != 1 || fr.FirstMismatch != 1 {
		t.Errorf("mismatch accounting: %+v", fr)
	}
	if len(fr.FailingAddrs) != 1 || fr.FailingAddrs[0] != 9 {
		t.Errorf("failing addrs = %v", fr.FailingAddrs)
	}
}

func TestAddressesWrapModuloWords(t *testing.T) {
	m := testMemory(t)
	words := m.Geometry().Words()
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: words + 3, Data: 0xAB},
		{Op: testgen.OpRead, Addr: 3},
	}
	_, fr := m.Execute(seq, 1.8)
	if fr.Failed() {
		t.Error("wrapped write failed")
	}
	if peek(m, 3) != 0xAB {
		t.Error("address did not wrap modulo array size")
	}
}

// randomSeq draws a random vector sequence biased toward reads of low
// addresses, so weak cells actually fire and dedup paths are exercised.
func randomSeq(rng *rand.Rand, words uint32, n int) testgen.Sequence {
	seq := make(testgen.Sequence, n)
	for i := range seq {
		var op testgen.OpKind
		switch rng.Intn(10) {
		case 0:
			op = testgen.OpNop
		case 1, 2, 3, 4:
			op = testgen.OpWrite
		default:
			op = testgen.OpRead
		}
		addr := uint32(rng.Intn(int(words) + 7)) // a few wrap past the array
		if rng.Intn(3) == 0 {
			addr = uint32(rng.Intn(16)) // hammer the weak-cell region
		}
		seq[i] = testgen.Vector{Op: op, Addr: addr, Data: rng.Uint32()}
	}
	return seq
}

// refPhysical is physical with the div/mod decode.
func refPhysical(m *Memory, addr uint32) uint32 {
	if len(m.rowRemap) == 0 {
		return addr
	}
	bank, row, col := refDecode(m.geom, addr)
	if base, ok := m.rowRemap[bank*m.geom.Rows+row]; ok {
		return base + uint32(col)
	}
	return addr
}

// refExecuteObserved is the reference execution kernel: the div/mod decode,
// a modulo address wrap, a weak-cell lookup on every read, and per-call
// maps for the row activations and the failing-address dedupe.
func refExecuteObserved(m *Memory, seq testgen.Sequence, vddEff float64, observe func(CycleRecord)) (Activity, FunctionalResult) {
	var act Activity
	fr := FunctionalResult{FirstMismatch: -1}
	if len(seq) == 0 {
		return act, fr
	}

	addrBits := float64(m.geom.AddrBits())
	words := m.geom.Words()

	var (
		prevAddr      uint32
		prevBus       uint32
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
	rowHits := make(map[int]int)
	failSeen := make(map[uint32]bool)

	for i, v := range seq {
		addr := v.Addr % words
		bank, row, col := refDecode(m.geom, addr)

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
			m.words[refPhysical(m, addr)] = v.Data
			if haveWrite {
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
			phys := refPhysical(m, addr)
			data := m.words[phys]
			if th, ok := m.die.WeakCellThreshold(phys); ok && vddEff < th {
				data ^= 1 << (addr % 32)
				corrupted = true
				fr.Mismatches++
				if fr.FirstMismatch < 0 {
					fr.FirstMismatch = i
				}
				if !failSeen[addr] {
					failSeen[addr] = true
					fr.FailingAddrs = append(fr.FailingAddrs, addr)
				}
			}
			bus = data
		default:
			bus = prevBus
		}
		if havePrev && v.Op != testgen.OpNop {
			tog = float64(bits.OnesCount32(prevBus^bus)) / 32.0
		}

		ssn := atd * tog

		atdSum += atd
		togSum += tog
		ssnSum += ssn

		sumATDw += atd - winATD[wIdx]
		winATD[wIdx] = atd
		sumTogw += tog - winTog[wIdx]
		winTog[wIdx] = tog
		sumSSNw += ssn - winSSN[wIdx]
		winSSN[wIdx] = ssn
		wIdx = (wIdx + 1) % activityWindow
		wlen := float64(activityWindow)
		if i+1 < activityWindow {
			wlen = float64(i + 1)
		}
		if a := sumATDw / wlen; a > atdPeak {
			atdPeak = a
		}
		if t := sumTogw / wlen; t > togPeak {
			togPeak = t
		}
		if s := sumSSNw / wlen; s > ssnPeak {
			ssnPeak = s
		}
		sumSus += ssn - winSus[susIdx]
		winSus[susIdx] = ssn
		susIdx = (susIdx + 1) % sustainWindow
		slen := float64(sustainWindow)
		if i+1 < sustainWindow {
			slen = float64(i + 1)
		}
		if i+1 >= sustainWindow/2 {
			if s := sumSus / slen; s > ssnSustained {
				ssnSustained = s
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

		if v.Op != testgen.OpNop {
			if last := m.lastRowInBank[bank]; last >= 0 && last != row {
				conflicts++
			}
			m.lastRowInBank[bank] = row
			rowHits[bank*m.geom.Rows+row]++
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
	maxRow := 0
	for _, c := range rowHits {
		if c > maxRow {
			maxRow = c
		}
	}
	act.RowHammer = clamp01(float64(maxRow) / n)
	return act, fr
}

// TestExecuteMatchesReferenceProperty runs the execution kernel and the
// reference side by side on twin arrays over the same die: 0–4 weak cells
// in the hammered low addresses, repaired rows, NOPs, addresses past the
// array, and runs with and without a Reset in between. Activity, the
// functional result, every cycle record, the array words and the open rows
// must match exactly.
func TestExecuteMatchesReferenceProperty(t *testing.T) {
	const seeds, runs = 320, 8
	var fired int
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts []DieOption
		for k := rng.Intn(5); k > 0; k-- {
			opts = append(opts, WithWeakCell(uint32(rng.Intn(16)), 1.5+rng.Float64()*0.5))
		}
		die := NewDie(int(seed), CornerTypical, opts...)
		got, err := NewMemory(DefaultGeometry(), die)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewMemory(DefaultGeometry(), die)
		if err != nil {
			t.Fatal(err)
		}
		words := got.Geometry().Words()
		for k := rng.Intn(3); k > 0; k-- {
			// Row 0 of bank 0 hosts the weak cells; repairing it moves them
			// out of reach, any other row just remaps.
			addr := uint32(rng.Intn(int(words)))
			if rng.Intn(2) == 0 {
				addr = uint32(rng.Intn(16))
			}
			errG, errW := got.RepairRow(addr), want.RepairRow(addr)
			if (errG == nil) != (errW == nil) {
				t.Fatalf("seed %d: RepairRow(%d) = %v, reference %v", seed, addr, errG, errW)
			}
		}
		for run := 0; run < runs; run++ {
			if rng.Intn(2) == 0 {
				got.Reset()
				want.Reset()
			}
			seq := randomSeq(rng, words, 1+rng.Intn(300))
			vdd := 1.4 + rng.Float64()*0.6
			var recG, recW []CycleRecord
			var observe, observeRef func(CycleRecord)
			if rng.Intn(2) == 0 {
				observe = func(r CycleRecord) { recG = append(recG, r) }
				observeRef = func(r CycleRecord) { recW = append(recW, r) }
			}
			actG, frG := got.ExecuteObserved(seq, vdd, observe)
			actW, frW := refExecuteObserved(want, seq, vdd, observeRef)
			if actG != actW {
				t.Fatalf("seed %d run %d: activity diverged\ngot       %+v\nreference %+v", seed, run, actG, actW)
			}
			if !reflect.DeepEqual(frG, frW) {
				t.Fatalf("seed %d run %d: functional result diverged\ngot       %+v\nreference %+v", seed, run, frG, frW)
			}
			if !reflect.DeepEqual(recG, recW) {
				t.Fatalf("seed %d run %d: cycle records diverged", seed, run)
			}
			if !reflect.DeepEqual(got.words, want.words) || !reflect.DeepEqual(got.lastRowInBank, want.lastRowInBank) {
				t.Fatalf("seed %d run %d: array state diverged", seed, run)
			}
			if frG.Failed() {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("no run corrupted a read; the weak-cell path went unexercised")
	}
}

// peek returns the word stored at addr without executing a bus cycle.
func peek(m *Memory, addr uint32) uint32 {
	return m.words[m.physical(addr%m.geom.Words())]
}

// poke stores a word at addr without executing a bus cycle.
func poke(m *Memory, addr, data uint32) {
	m.words[m.physical(addr%m.geom.Words())] = data
}
