package shmoo

import (
	"testing"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// The fleet sweep AddTestsOn is pure scheduling: same plot and same merged
// cost counters as a hermetic reference that sweeps every test on its own
// fresh insertion, at every fleet size — with measurement noise ON so the
// RNG discipline is actually load-bearing.

// hermeticOverlay is the reference AddTestsOn must reproduce: test i on a
// freshly forked insertion reseeded with baseSeed+i, swept row by row
// and merged into p, its cost merged into a in test order.
func hermeticOverlay(t *testing.T, p *Plot, a *ate.ATE, tests []testgen.Test, baseSeed int64) {
	t.Helper()
	for i, tt := range tests {
		wk, err := a.Fork(baseSeed)
		if err != nil {
			t.Fatal(err)
		}
		wk.Reseed(baseSeed + int64(i))
		cells, err := p.sweepGrid(wk, tt)
		if err != nil {
			t.Fatal(err)
		}
		p.merge(cells)
		p.Tests++
		a.AddStats(wk.Stats())
	}
}

func smallAxes() (Axis, Axis) {
	x := Axis{Label: "T_DQ (ns)", Min: 20, Max: 32, Steps: 13}
	y := Axis{Label: "VDD (V)", Min: 1.5, Max: 2.1, Steps: 7}
	return x, y
}

func TestAddTestsOnMatchesHermeticOverlay(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(6)
	x, y := smallAxes()

	reference := func() (string, int64) {
		p, err := NewPlot(x, y)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := tester.Fork(1)
		if err != nil {
			t.Fatal(err)
		}
		hermeticOverlay(t, p, fork, tests, 900)
		return p.Render(), fork.Stats().Measurements
	}
	wantGrid, wantCost := reference()

	for _, workers := range []int{1, 2, 8} {
		p, err := NewPlot(x, y)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := tester.Fork(1)
		if err != nil {
			t.Fatal(err)
		}
		f := parallel.NewFleet(workers)
		if err := p.AddTestsOn(f, fork, tests, 900); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if got := p.Render(); got != wantGrid {
			t.Errorf("fleet=%d grid differs from the hermetic reference:\n%s\nvs\n%s", workers, got, wantGrid)
		}
		if got := fork.Stats().Measurements; got != wantCost {
			t.Errorf("fleet=%d merged %d measurements, hermetic reference %d", workers, got, wantCost)
		}
		if p.Tests != len(tests) {
			t.Errorf("fleet=%d Tests = %d, want %d", workers, p.Tests, len(tests))
		}
	}
}

func TestAddTestsOnReusesFleetAcrossOverlays(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(4)
	x, y := smallAxes()

	want, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	refFork, err := tester.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	hermeticOverlay(t, want, refFork, tests[:2], 77)
	hermeticOverlay(t, want, refFork, tests[2:], 78)

	got, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := tester.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	f := parallel.NewFleet(3)
	defer f.Close()
	// Two overlays on the same fleet: the workers (and their reused
	// insertions) survive the stage boundary.
	if err := got.AddTestsOn(f, fork, tests[:2], 77); err != nil {
		t.Fatal(err)
	}
	if err := got.AddTestsOn(f, fork, tests[2:], 78); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Render(), want.Render(); g != w {
		t.Errorf("persistent-fleet overlay differs:\n%s\nvs\n%s", g, w)
	}
	if g, w := fork.Stats().Measurements, refFork.Stats().Measurements; g != w {
		t.Errorf("persistent-fleet cost %d, hermetic reference %d", g, w)
	}
}

func TestAddTestsOnDeterministicAcrossWorkers(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25 // noise on: the RNG discipline is the hard part
	tests := gen.Batch(6)
	x, y := smallAxes()

	// workers 0 is the nil fleet: the serial fleet of one.
	render := func(workers int) (string, int64) {
		p, err := NewPlot(x, y)
		if err != nil {
			t.Fatal(err)
		}
		fork, err := tester.Fork(1)
		if err != nil {
			t.Fatal(err)
		}
		var f *parallel.Fleet
		if workers > 0 {
			f = parallel.NewFleet(workers)
			defer f.Close()
		}
		if err := p.AddTestsOn(f, fork, tests, 900); err != nil {
			t.Fatal(err)
		}
		return p.Render(), fork.Stats().Measurements
	}

	serial, serialCost := render(0)
	for _, workers := range []int{1, 2, 8} {
		got, cost := render(workers)
		if got != serial {
			t.Errorf("workers=%d grid differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
		if cost != serialCost {
			t.Errorf("workers=%d merged %d measurements, serial %d", workers, cost, serialCost)
		}
	}
}

func TestFleetOverlayMatchesNoiselessSerial(t *testing.T) {
	// With noise disabled the per-test hermetic semantics cannot differ
	// from sweeping every test on one shared tester (thermal off too): the
	// fleet overlay must equal that serial overlay cell for cell.
	tester, gen := rig(t) // rig sets NoiseFraction = 0, no Heating
	tests := gen.Batch(4)
	x, y := smallAxes()

	serial, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		cells, err := serial.sweepGrid(tester, tt)
		if err != nil {
			t.Fatal(err)
		}
		serial.merge(cells)
		serial.Tests++
	}

	par, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	f := parallel.NewFleet(4)
	defer f.Close()
	if err := par.AddTestsOn(f, tester, tests, 902); err != nil {
		t.Fatal(err)
	}
	if got, want := par.Render(), serial.Render(); got != want {
		t.Errorf("fleet overlay differs from serial:\n%s\nvs\n%s", got, want)
	}
}

func TestOnTestObserverFiresInTestOrder(t *testing.T) {
	tester, gen := rig(t)
	tests := gen.Batch(5)
	x, y := smallAxes()
	p, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var indices []int
	var total int64
	p.OnTest = func(index int, cost ate.Stats) {
		indices = append(indices, index)
		total += cost.Measurements
	}
	fork, err := tester.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	f := parallel.NewFleet(4)
	defer f.Close()
	if err := p.AddTestsOn(f, fork, tests, 902); err != nil {
		t.Fatal(err)
	}
	if len(indices) != len(tests) {
		t.Fatalf("observer fired %d times for %d tests", len(indices), len(tests))
	}
	for i, idx := range indices {
		if idx != i {
			t.Errorf("observation %d has overlay index %d", i, idx)
		}
	}
	if total != fork.Stats().Measurements {
		t.Errorf("observed cost %d != merged tester cost %d", total, fork.Stats().Measurements)
	}

	// A second overlay on the same plot continues the index sequence.
	indices = nil
	if err := p.AddTestsOn(nil, fork, tests[:1], 903); err != nil {
		t.Fatal(err)
	}
	if len(indices) != 1 || indices[0] != 5 {
		t.Errorf("second-overlay observations = %v, want [5]", indices)
	}
}
