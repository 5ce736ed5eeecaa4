package dut

import (
	"testing"

	"repro/internal/testgen"
)

func weakDevice(t *testing.T, addr uint32, threshold float64) *Device {
	t.Helper()
	die := NewDie(0, CornerTypical, WithWeakCell(addr, threshold))
	dev, err := NewDevice(DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func weakReadTest(addr uint32) testgen.Test {
	return testgen.Test{
		Name: "weakread",
		Seq: testgen.Sequence{
			{Op: testgen.OpWrite, Addr: addr, Data: 0xDEADBEEF},
			{Op: testgen.OpRead, Addr: addr},
		},
		Cond: testgen.NominalConditions(),
	}
}

func TestRepairFixesWeakCell(t *testing.T) {
	const addr = 37
	dev := weakDevice(t, addr, 2.5) // corrupts at any realistic supply
	tt := weakReadTest(addr)

	p, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Func.Failed() {
		t.Fatal("weak cell did not fail before repair")
	}

	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	p, err = dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Func.Failed() {
		t.Error("repaired row still fails")
	}
	if len(dev.mem.rowRemap) != 1 {
		t.Errorf("repaired rows = %d", len(dev.mem.rowRemap))
	}
}

func TestRepairPreservesData(t *testing.T) {
	dev := testDevice(t)
	mem := dev.mem
	const addr = 100
	if err := mem.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	poke(mem, addr, 0xABCD)
	if got := peek(mem, addr); got != 0xABCD {
		t.Errorf("read after write through repair = %08X", got)
	}
	// A write to the repaired row must not alias any other logical word.
	geom := mem.Geometry()
	for a := uint32(0); a < geom.Words(); a++ {
		if a == addr {
			continue
		}
		if got := peek(mem, a); got != 0 {
			t.Fatalf("repair aliased logical address %d (= %08X)", a, got)
		}
	}
}

func TestRepairWholeRowMoves(t *testing.T) {
	dev := testDevice(t)
	geom := dev.Geometry()
	// Repairing any address of a row must remap every column of that row.
	const addr = 160 // row 10 of bank 0
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	rowBase := addr - addr%uint32(geom.Cols)
	for c := uint32(0); c < uint32(geom.Cols); c++ {
		phys := dev.mem.physical(rowBase + c)
		if phys < geom.Words() {
			t.Fatalf("column %d of the repaired row still physical %d (logical region)", c, phys)
		}
	}
	// The neighbouring rows stay put.
	if phys := dev.mem.physical(rowBase - 1); phys != rowBase-1 {
		t.Error("repair moved the previous row")
	}
	if phys := dev.mem.physical(rowBase + uint32(geom.Cols)); phys != rowBase+uint32(geom.Cols) {
		t.Error("repair moved the next row")
	}
}

func TestRepairExhaustsSpares(t *testing.T) {
	dev := testDevice(t)
	geom := dev.Geometry()
	// Bank 0: repair SpareRowsPerBank distinct rows, then one more fails.
	for r := 0; r < SpareRowsPerBank; r++ {
		addr := uint32(r * geom.Cols)
		if err := dev.RepairRow(addr); err != nil {
			t.Fatalf("repair %d: %v", r, err)
		}
	}
	if got := sparesLeft(dev, 0); got != 0 {
		t.Errorf("spares remaining = %d", got)
	}
	if err := dev.RepairRow(uint32(SpareRowsPerBank * geom.Cols)); err == nil {
		t.Error("repair beyond spare budget accepted")
	}
	// Other banks are unaffected.
	bank1 := uint32(geom.Rows * geom.Cols)
	if got := sparesLeft(dev, bank1); got != SpareRowsPerBank {
		t.Errorf("bank 1 spares = %d", got)
	}
	if err := dev.RepairRow(bank1); err != nil {
		t.Errorf("bank 1 repair failed: %v", err)
	}
}

func TestRepairSameRowTwice(t *testing.T) {
	dev := testDevice(t)
	if err := dev.RepairRow(5); err != nil {
		t.Fatal(err)
	}
	if err := dev.RepairRow(7); err == nil { // same row (cols 0..15)
		t.Error("double repair of one row accepted")
	}
}

func TestRepairSurvivesReset(t *testing.T) {
	const addr = 11
	dev := weakDevice(t, addr, 2.5)
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	dev.mem.Reset()
	p, err := dev.Profile(weakReadTest(addr))
	if err != nil {
		t.Fatal(err)
	}
	if p.Func.Failed() {
		t.Error("repair lost across Reset; eFuse repair must persist")
	}
}

func TestCloneKeepsRepairs(t *testing.T) {
	const addr = 37
	dev := weakDevice(t, addr, 2.5)
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	clone, err := dev.Clone()
	if err != nil {
		t.Fatal(err)
	}
	p, err := clone.Profile(weakReadTest(addr))
	if err != nil {
		t.Fatal(err)
	}
	if p.Func.Failed() {
		t.Error("clone of a repaired device reads the unrepaired weak cell")
	}
	if len(clone.mem.rowRemap) != 1 || sparesLeft(clone, addr) != SpareRowsPerBank-1 {
		t.Errorf("clone repaired rows %d, spares %d; want 1, %d",
			len(clone.mem.rowRemap), sparesLeft(clone, addr), SpareRowsPerBank-1)
	}
	// The copy is independent: a repair on the clone does not reach the
	// original.
	if err := clone.RepairRow(0); err != nil {
		t.Fatal(err)
	}
	if len(dev.mem.rowRemap) != 1 {
		t.Errorf("repair on the clone reached the original (%d rows)", len(dev.mem.rowRemap))
	}
}

// sparesLeft returns the free spare rows of the bank containing addr.
func sparesLeft(d *Device, addr uint32) int {
	bank, _, _ := d.mem.geom.Decode(addr % d.mem.geom.Words())
	return SpareRowsPerBank - d.mem.sparesUsed[bank]
}
