package dut

import "fmt"

// Row-redundancy repair. Memory test chips carry spare rows per bank;
// when characterization localizes a functional failure (a weak cell
// provoked by a worst-case test), the row is remapped to a spare and the
// device retested — the standard laser/eFuse repair loop that consumes the
// failure addresses the paper's flow stores in the worst-case database.
//
// The spare rows are physically defect-free in this model (weak cells are
// keyed by logical address and a repaired row no longer resolves there).

// SpareRowsPerBank is the number of redundant rows each bank carries.
const SpareRowsPerBank = 2

// RepairRow remaps the logical row containing addr onto the next free
// spare row of its bank. Repairing an already-repaired row is an error, as
// is running out of spares.
func (m *Memory) RepairRow(addr uint32) error {
	addr %= m.geom.Words()
	bank, row, _ := m.geom.Decode(addr)
	key := bank*m.geom.Rows + row
	if _, done := m.rowRemap[key]; done {
		return fmt.Errorf("dut: bank %d row %d already repaired", bank, row)
	}
	if m.sparesUsed[bank] >= SpareRowsPerBank {
		return fmt.Errorf("dut: bank %d out of spare rows (%d used)", bank, SpareRowsPerBank)
	}
	spareIdx := m.sparesUsed[bank]
	m.sparesUsed[bank]++
	// Physical base of this spare row inside the spare region.
	base := m.geom.Words() + uint32((bank*SpareRowsPerBank+spareIdx)*m.geom.Cols)
	if m.rowRemap == nil {
		m.rowRemap = make(map[int]uint32)
	}
	m.rowRemap[key] = base
	return nil
}

// physical maps a logical (bus) address to its physical storage index,
// following any row repair.
func (m *Memory) physical(addr uint32) uint32 {
	if len(m.rowRemap) == 0 {
		return addr
	}
	bank, row, col := m.geom.Decode(addr)
	if base, ok := m.rowRemap[bank*m.geom.Rows+row]; ok {
		return base + uint32(col)
	}
	return addr
}

// RepairRow on the Device repairs the row containing the logical address.
func (d *Device) RepairRow(addr uint32) error { return d.mem.RepairRow(addr) }
