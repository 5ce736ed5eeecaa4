package ate

import (
	"testing"

	"repro/internal/dut"
)

func TestReseedDoesNotAllocate(t *testing.T) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(1, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	a := New(dev, 1)
	a.Heating = DefaultThermal()
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() { seed++; a.Reseed(seed) }); allocs != 0 {
		t.Errorf("Reseed allocates %v times per call", allocs)
	}
}
