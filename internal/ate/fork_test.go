package ate

import (
	"slices"
	"testing"

	"repro/internal/dut"
	"repro/internal/testgen"
)

// measureTwice runs a small fixed measurement task and returns the observed
// pass pattern — noise-sensitive on purpose, so RNG state differences show.
func measureTwice(t *testing.T, a *ATE, tt testgen.Test) [8]bool {
	t.Helper()
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	w := p.TDQWindowNS()
	var out [8]bool
	for i := range out {
		// Strobe right at the window edge: pass/fail decided by noise.
		pass, err := a.MeasureTDQPass(tt, w)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pass
	}
	return out
}

func TestForkIsIndependent(t *testing.T) {
	a := testATE(t)
	a.Heating = DefaultThermal()
	tt := sampleTest(t)

	f, err := a.Fork(1234)
	if err != nil {
		t.Fatal(err)
	}
	if f.NoiseFraction != a.NoiseFraction {
		t.Error("fork lost the noise configuration")
	}
	if f.Heating == a.Heating {
		t.Error("fork shares the parent's thermal state")
	}
	if f.Heating == nil || f.Heating.RisePerVector != a.Heating.RisePerVector {
		t.Error("fork lost the thermal configuration")
	}
	if f.Device() == a.Device() {
		t.Error("fork shares the parent's device")
	}
	if f.Device().Die() != a.Device().Die() {
		t.Error("fork must measure the same die")
	}
	if f.Stats() != (Stats{}) {
		t.Error("fork starts with non-zero counters")
	}

	// Measuring on the fork must not move the parent's counters.
	before := a.Stats()
	if _, err := f.MeasureTDQPass(tt, 25); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != before {
		t.Error("fork measurement charged the parent")
	}
}

func TestForkNilHeating(t *testing.T) {
	a := testATE(t)
	f, err := a.Fork(5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Heating != nil {
		t.Error("fork invented a thermal model")
	}
}

func TestReseedIsHermetic(t *testing.T) {
	// The deterministic-parallel contract: after Reseed(seed), a task's
	// results depend only on the seed — not on how much work the insertion
	// did before. Run the same task on a fresh fork and on a fork that
	// already burned through unrelated measurements; results must match.
	a := testATE(t)
	a.Heating = DefaultThermal()
	tt := sampleTest(t)

	fresh, err := a.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Reseed(4242)
	want := measureTwice(t, fresh, tt)

	used, err := a.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	// Burn RNG draws, thermal rise, pattern cache and test time.
	other, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0xAAAAAAAA, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	other.Name = "burn-in"
	for i := 0; i < 40; i++ {
		if _, err := used.MeasureTDQPass(other, 20); err != nil {
			t.Fatal(err)
		}
	}
	used.Reseed(4242)
	if got := measureTwice(t, used, tt); got != want {
		t.Errorf("reseeded task diverged: got %v, want %v", got, want)
	}
}

func TestAddStatsMerges(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	if _, err := a.MeasureTDQPass(tt, 25); err != nil {
		t.Fatal(err)
	}
	f, err := a.Fork(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.MeasureTDQPass(tt, 25); err != nil {
			t.Fatal(err)
		}
	}
	a.AddStats(f.Stats())
	s := a.Stats()
	if s.Measurements != 4 {
		t.Errorf("merged measurements = %d, want 4", s.Measurements)
	}
	if s.Profiles != 2 {
		t.Errorf("merged profiles = %d, want 2", s.Profiles)
	}
	if s.VectorsApplied != int64(4*len(tt.Seq)) {
		t.Errorf("merged vectors = %d, want %d", s.VectorsApplied, 4*len(tt.Seq))
	}
}

func TestDeviceCloneSameSilicon(t *testing.T) {
	a := testATE(t)
	a.NoiseFraction = 0
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}

	clone, err := a.Device().Clone()
	if err != nil {
		t.Fatal(err)
	}
	b := New(clone, 1)
	b.NoiseFraction = 0
	q, err := b.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if p.TDQWindowNS() != q.TDQWindowNS() {
		t.Errorf("clone window %.6f != original %.6f", q.TDQWindowNS(), p.TDQWindowNS())
	}
	if p.FmaxMHz() != q.FmaxMHz() {
		t.Errorf("clone fmax %.6f != original %.6f", q.FmaxMHz(), p.FmaxMHz())
	}
}

// TestPreloadMatchesLoad pins Preload against load: a tester fed profiles
// computed on a fork measures every test exactly as a tester that executes
// its own patterns — same pass/fail bits, same Stats — including on a
// repaired device and across a repeated test name.
func TestPreloadMatchesLoad(t *testing.T) {
	const weak = 37
	newTester := func() *ATE {
		dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(weak, 2.5)))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.RepairRow(weak); err != nil {
			t.Fatal(err)
		}
		a := New(dev, 5)
		a.Heating = DefaultThermal()
		return a
	}
	gen := testgen.NewRandomGenerator(3, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits())
	tests := gen.Batch(12)
	tests = append(tests, tests[len(tests)-1]) // the loaded name again
	tests = append(tests, testgen.Test{
		Name: "weak-read",
		Seq:  testgen.Sequence{{Op: testgen.OpWrite, Addr: weak, Data: 1}, {Op: testgen.OpRead, Addr: weak}},
		Cond: testgen.NominalConditions(),
	})

	// measure strobes each test around its window edge, where noise and
	// self-heating decide, then replays it functionally.
	measure := func(a *ATE, tt testgen.Test) []bool {
		p, err := a.Profile(tt)
		if err != nil {
			t.Fatal(err)
		}
		var bits []bool
		for i := -4; i <= 4; i++ {
			edge := p.TDQWindowNSAtCond(tt.Cond.VddV, tt.Cond.TempC+a.Heating.RiseC(), tt.Cond.ClockMHz)
			pass, err := a.Measurer(TDQ, tt).Passes(edge + float64(i)*TDQ.Resolution()/4)
			if err != nil {
				t.Fatal(err)
			}
			bits = append(bits, pass)
		}
		pass, err := a.FunctionalPass(tt)
		if err != nil {
			t.Fatal(err)
		}
		return append(bits, pass)
	}

	own := newTester()
	fed := newTester()
	fork, err := fed.Fork(77)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		fork.Reload()
		p, err := fork.Profile(tt)
		if err != nil {
			t.Fatal(err)
		}
		fed.Preload(p)
		want, got := measure(own, tt), measure(fed, tt)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: preloaded tester measured %v, own-profile tester %v", tt.Name, got, want)
		}
	}
	if own.Stats() != fed.Stats() {
		t.Errorf("stats differ:\npreloaded %+v\nown       %+v", fed.Stats(), own.Stats())
	}
	if got, want := fed.Stats().Profiles, int64(len(tests)-1); got != want {
		t.Errorf("profiles = %d, want %d (the repeated name loads once)", got, want)
	}

	// Preloading the loaded name charges nothing and keeps the loaded
	// profile.
	before := fed.Stats()
	last := tests[len(tests)-1]
	fed.Preload(dut.Profile{Test: last})
	if fed.Stats() != before {
		t.Errorf("preloading the loaded name charged %+v", fed.Stats())
	}
	if pass, err := fed.FunctionalPass(last); err != nil || !pass {
		t.Errorf("loaded profile replaced by the preload: pass %v, err %v", pass, err)
	}
}

// TestForkMeasuresLikeReseededParent pins Fork against Reseed in every
// tester state a flow forks from: a fork made with seed s measures a task
// exactly as its parent does after Reseed(s) — same pass/fail bits, same
// Stats. A field that Fork or Device.Clone forgets (row repairs, the
// repeat count, the noise fraction, ...) shows up as a state whose fork
// measures other silicon or another configuration.
func TestForkMeasuresLikeReseededParent(t *testing.T) {
	const weak = 37
	tests := edgeTests(weak)
	states := []struct {
		name string
		set  func(t *testing.T, a *ATE)
	}{
		{"fresh", func(*testing.T, *ATE) {}},
		{"repaired", func(t *testing.T, a *ATE) {
			if err := a.Device().RepairRow(weak); err != nil {
				t.Fatal(err)
			}
		}},
		{"heating", func(_ *testing.T, a *ATE) { a.Heating = DefaultThermal() }},
		{"noiseless", func(_ *testing.T, a *ATE) { a.NoiseFraction = 0 }},
		{"profiler", func(_ *testing.T, a *ATE) {
			a.Profiler = func(dev *dut.Device, tt testgen.Test) (dut.Profile, error) { return dev.Profile(tt) }
		}},
		// A warm junction, a spent noise stream, and the task's first test
		// loaded with its window memo filled.
		{"warm", func(t *testing.T, a *ATE) {
			a.Heating = DefaultThermal()
			edgeTask(t, a, measured(a), tests[:1])
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			const seed = 4242
			a := weakTester(t, weak)
			st.set(t, a)
			f, err := a.Fork(seed)
			if err != nil {
				t.Fatal(err)
			}
			a.Reseed(seed)
			want := edgeTask(t, a, measured(a), tests)
			if got := edgeTask(t, f, measured(f), tests); !slices.Equal(got, want) {
				t.Errorf("fork measured %v\nreseeded parent %v", got, want)
			}
			if f.Stats() != a.Stats() {
				t.Errorf("stats differ:\nfork   %+v\nparent %+v", f.Stats(), a.Stats())
			}
		})
	}
}
