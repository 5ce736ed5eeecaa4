package proptest

import (
	"strings"
	"testing"

	"repro/internal/testgen"
)

func TestDrawsAreDeterministicForOneSeed(t *testing.T) {
	drawOnce := func() []uint64 {
		var got []uint64
		out := runCase(42, newRecordingSource(42), func(pt *T) {
			for i := 0; i < 16; i++ {
				got = append(got, pt.Uint64())
			}
		})
		if out.failed {
			t.Fatal("probe property failed")
		}
		return got
	}
	a, b := drawOnce(), drawOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeds: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCaseSeedsDiffer(t *testing.T) {
	base := baseSeed("TestCaseSeedsDiffer")
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		s := mix(base, i)
		if s == 0 {
			t.Fatal("mix produced the reserved zero seed")
		}
		if seen[s] {
			t.Fatalf("case %d repeats an earlier seed %d", i, s)
		}
		seen[s] = true
	}
}

func TestZeroTapeYieldsMinimalValues(t *testing.T) {
	out := runCase(1, newReplaySource(nil), func(pt *T) {
		if v := pt.Intn(100); v != 0 {
			pt.Errorf("Intn = %d", v)
		}
		if v := pt.IntRange(-7, 9); v != -7 {
			pt.Errorf("IntRange = %d", v)
		}
		if v := pt.Float64Range(2.5, 9); v != 2.5 {
			pt.Errorf("Float64Range = %g", v)
		}
		if pt.Bool() {
			pt.Errorf("Bool = true")
		}
		if v := pt.FiniteFloat(); v != 0 {
			pt.Errorf("FiniteFloat = %g", v)
		}
	})
	if out.failed {
		t.Fatalf("zero tape is not minimal: %v", out.msgs)
	}
}

// TestShrinkFindsBoundary pins the shrinker's contract: a property failing
// for any drawn value ≥ 1000 must shrink to exactly 1000 (the minimal
// failing integer), in one draw.
func TestShrinkFindsBoundary(t *testing.T) {
	prop := func(pt *T) {
		// A little decoy structure around the essential draw.
		n := pt.IntRange(1, 8)
		for i := 0; i < n; i++ {
			v := pt.Intn(1 << 20)
			if v >= 1000 {
				pt.Fatalf("v = %d", v)
			}
		}
	}
	// Find a failing seed first.
	var tape []uint64
	var seed uint64
	for i := 0; ; i++ {
		seed = mix(99, i)
		src := newRecordingSource(seed)
		if out := runCase(seed, src, prop); out.failed {
			tape = src.tape
			break
		}
		if i > 200 {
			t.Fatal("no failing case found")
		}
	}
	shrunk, runs := shrink(tape, func(c []uint64) bool {
		out := runCase(seed, newReplaySource(c), prop)
		return out.failed && !out.discarded
	})
	if runs > maxShrinkRuns {
		t.Fatalf("shrinker overspent its budget: %d runs", runs)
	}
	final := runCase(seed, newReplaySource(shrunk), prop)
	if !final.failed {
		t.Fatal("shrunk tape no longer fails")
	}
	want := "v = 1000"
	if len(final.msgs) == 0 || final.msgs[0] != want {
		t.Fatalf("shrunk counterexample %v, want %q", final.msgs, want)
	}
	// Minimal structure: n shrinks to 1, so two draws survive.
	if len(shrunk) > 2 {
		t.Errorf("shrunk tape has %d draws, want ≤ 2", len(shrunk))
	}
}

func TestPanicCountsAsFalsification(t *testing.T) {
	out := runCase(7, newRecordingSource(7), func(pt *T) {
		panic("boom")
	})
	if !out.failed || out.panicked == nil {
		t.Fatalf("panic not recorded as failure: %+v", out)
	}
	if len(out.msgs) == 0 || !strings.Contains(out.msgs[0], "boom") {
		t.Fatalf("panic message lost: %v", out.msgs)
	}
}

func TestDiscardIsNeitherPassNorFail(t *testing.T) {
	out := runCase(7, newRecordingSource(7), func(pt *T) {
		pt.Discard()
	})
	if out.failed || !out.discarded {
		t.Fatalf("discard misreported: %+v", out)
	}
}

func TestFailureMessageCarriesReproLine(t *testing.T) {
	msg := failureMessage("TestX/sub", 12345, 3, 10, 2, 40, outcome{
		logs: []string{"opt = [0, 1]"},
		msgs: []string{"trip point diverged"},
	})
	for _, want := range []string{
		"go test -run '^TestX$/^sub$' -proptest.seed=12345",
		"case: opt = [0, 1]",
		"fail: trip point diverged",
		"10→2 draws",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message missing %q:\n%s", want, msg)
		}
	}
}

func TestCheckPassesAndRepaysDiscards(t *testing.T) {
	ran := 0
	Check(t, 50, func(pt *T) {
		if pt.Intn(4) == 0 {
			pt.Discard()
		}
		ran++
	})
	if ran < 50 {
		t.Fatalf("only %d undiscarded cases ran, want ≥ 50", ran)
	}
}

func TestSeedFlagReplaysSingleCase(t *testing.T) {
	old := *flagSeed
	defer func() { *flagSeed = old }()
	*flagSeed = 4242
	var seeds []uint64
	Check(t, 100, func(pt *T) { seeds = append(seeds, pt.Seed()) })
	if len(seeds) != 1 || seeds[0] != 4242 {
		t.Fatalf("replay ran cases %v, want exactly [4242]", seeds)
	}
}

func TestGeneratedDomainsAreValid(t *testing.T) {
	Check(t, 300, func(pt *T) {
		opt := GenSearchOptions(pt)
		if err := opt.Validate(); err != nil {
			pt.Fatalf("GenSearchOptions invalid: %v", err)
		}
		if opt.FullRangeBudget() < 2 {
			pt.Errorf("degenerate full-range budget %d for %+v", opt.FullRangeBudget(), opt)
		}
		c := GenSUTPCase(pt, 0.2)
		if c.Trip <= c.Opt.Lo || c.Trip >= c.Opt.Hi {
			pt.Errorf("trip %g outside range [%g, %g]", c.Trip, c.Opt.Lo, c.Opt.Hi)
		}
		if c.RTP < c.Opt.Lo || c.RTP > c.Opt.Hi {
			pt.Errorf("rtp %g outside range", c.RTP)
		}
		v := GenFuzzyVariable(pt)
		if err := v.Validate(); err != nil {
			pt.Fatalf("GenFuzzyVariable invalid: %v", err)
		}
		sizes := GenTopology(pt, 9, 5)
		if sizes[0] != 9 || sizes[len(sizes)-1] != 5 || len(sizes) < 2 {
			pt.Errorf("GenTopology bad sizes %v", sizes)
		}
		tt := GenTest(pt, 4096, defaultLimitsForTest(), 1, 40)
		if err := tt.Seq.Validate(4096); err != nil {
			pt.Fatalf("GenTest sequence invalid: %v", err)
		}
		if l := defaultLimitsForTest(); l.Clamp(tt.Cond) != tt.Cond {
			pt.Errorf("conditions %+v outside limits", tt.Cond)
		}
	})
}

func defaultLimitsForTest() testgen.ConditionLimits {
	return testgen.DefaultConditionLimits()
}
