package shmoo

import (
	"testing"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// The fleet sweeps are pure scheduling: same plot and same merged cost
// counters as a hermetic reference that sweeps every test on its own fresh
// insertion through the serial AddTestFunc, at every fleet size — with
// measurement noise ON so the RNG discipline is actually load-bearing.

// hermeticOverlay is the reference the fleet sweeps must reproduce: test i
// on a freshly forked insertion reseeded with baseSeed+i, swept cell by cell
// with AddTestFunc, its cost merged into a in test order.
func hermeticOverlay(t *testing.T, p *Plot, a *ate.ATE, tests []testgen.Test, baseSeed int64, point forkPoint) {
	t.Helper()
	for i, tt := range tests {
		wk, err := a.Fork(baseSeed)
		if err != nil {
			t.Fatal(err)
		}
		wk.Reseed(baseSeed + int64(i))
		if err := p.AddTestFunc(tt, point(wk)); err != nil {
			t.Fatal(err)
		}
		a.AddStats(wk.Stats())
	}
}

func tdqPoint(wk *ate.ATE) PointFunc  { return wk.MeasureShmooPoint }
func fmaxPoint(wk *ate.ATE) PointFunc { return wk.MeasureFmaxShmooPoint }

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
		hermeticOverlay(t, p, fork, tests, 900, tdqPoint)
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
	hermeticOverlay(t, want, refFork, tests[:2], 77, tdqPoint)
	hermeticOverlay(t, want, refFork, tests[2:], 78, tdqPoint)

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

func TestAddFmaxTestsOnMatchesHermeticOverlay(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(3)
	x := Axis{Label: "F (MHz)", Min: 40, Max: 120, Steps: 9}
	_, y := smallAxes()

	want, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	refFork, err := tester.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	hermeticOverlay(t, want, refFork, tests, 55, fmaxPoint)

	got, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := tester.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	f := parallel.NewFleet(4)
	defer f.Close()
	if err := got.AddFmaxTestsOn(f, fork, tests, 55); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Render(), want.Render(); g != w {
		t.Errorf("fmax fleet overlay differs:\n%s\nvs\n%s", g, w)
	}
	if g, w := fork.Stats().Measurements, refFork.Stats().Measurements; g != w {
		t.Errorf("fmax fleet cost %d, hermetic reference %d", g, w)
	}
}
