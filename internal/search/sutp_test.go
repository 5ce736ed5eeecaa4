package search

import (
	"math"
	"testing"
)

func TestSUTPFirstSearchEstablishesRTP(t *testing.T) {
	s := &SUTP{Refine: true}
	if s.haveRTP {
		t.Fatal("fresh SUTP already has a reference")
	}
	surf := &surface{trip: 30, orientation: PassLow}
	res, err := s.Search(surf, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("first search did not converge")
	}
	if !s.haveRTP {
		t.Fatal("reference trip point not established")
	}
	if math.Abs(s.rtp-30) > 0.2 {
		t.Errorf("RTP = %g, want ≈30", s.rtp)
	}
}

func TestSUTPFollowupCheaperThanFullRange(t *testing.T) {
	// The paper's central claim (§4): once the RTP exists, trip points in
	// its neighbourhood cost far fewer measurements than a full-range
	// search, because CR ≫ SF.
	s := &SUTP{Refine: true}
	first := &surface{trip: 30, orientation: PassLow}
	if _, err := s.Search(first, opts(PassLow)); err != nil {
		t.Fatal(err)
	}

	fullCost := 0
	sutpCost := 0
	for _, trip := range []float64{29.1, 30.6, 31.2, 28.4, 30.0} {
		fr, err := (Binary{}).Search(&surface{trip: trip, orientation: PassLow}, opts(PassLow))
		if err != nil {
			t.Fatal(err)
		}
		fullCost += fr.Measurements

		sr, err := s.Search(&surface{trip: trip, orientation: PassLow}, opts(PassLow))
		if err != nil {
			t.Fatal(err)
		}
		if !sr.Converged {
			t.Fatalf("SUTP did not converge for trip %g", trip)
		}
		if math.Abs(sr.TripPoint-trip) > 0.1+1e-9 {
			t.Errorf("SUTP trip %g, want %g", sr.TripPoint, trip)
		}
		sutpCost += sr.Measurements
	}
	if sutpCost >= fullCost {
		t.Errorf("SUTP follow-up cost %d not below full-range cost %d", sutpCost, fullCost)
	}
}

func TestSUTPDetectsLargeDrift(t *testing.T) {
	// "In case of unexpected drift of design performance ... our proposal
	// is flexible enough to detect the drift" — the accelerating steps
	// must still find a trip point far from the RTP.
	s := &SUTP{Refine: true}
	if _, err := s.Search(&surface{trip: 30, orientation: PassLow}, opts(PassLow)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(&surface{trip: 85, orientation: PassLow}, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.TripPoint-85) > 0.1+1e-9 {
		t.Errorf("large upward drift missed: %+v", res)
	}
	res, err = s.Search(&surface{trip: 5, orientation: PassLow}, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.TripPoint-5) > 0.1+1e-9 {
		t.Errorf("large downward drift missed: %+v", res)
	}
}

func TestSUTPAcceleratingSteps(t *testing.T) {
	// Cost to reach a drift D from RTP grows sub-linearly in D/SF thanks
	// to SF(IT) = SF·IT: reaching 16 SF away must cost far fewer than 16
	// probes.
	s := &SUTP{SF: 1, Refine: false}
	s.SetReference(50)
	surf := &surface{trip: 66, orientation: PassLow} // 16 SF above RTP
	res, err := s.Search(surf, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Triangular steps: 1+2+3+4+5+6 = 21 ≥ 16, so ~7 probes (1 at RTP + 6).
	if res.Measurements > 9 {
		t.Errorf("accelerating scan took %d measurements for a 16-step drift, want ≤ 9", res.Measurements)
	}
}

func TestSUTPPassHighOrientation(t *testing.T) {
	s := &SUTP{Refine: true}
	o := opts(PassHigh)
	if _, err := s.Search(&surface{trip: 60, orientation: PassHigh}, o); err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(&surface{trip: 63, orientation: PassHigh}, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || math.Abs(res.TripPoint-63) > 0.1+1e-9 {
		t.Errorf("pass-high follow-up trip %g, want 63", res.TripPoint)
	}
}

func TestSUTPUnrefinedAccuracyIsSF(t *testing.T) {
	s := &SUTP{SF: 2, Refine: false}
	s.SetReference(50)
	res, err := s.Search(&surface{trip: 55.7, orientation: PassLow}, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Probes land at 50, 52, 56 (triangular SF·IT steps), so the bracket
	// is [52, 56] and must contain the true trip point.
	if res.LastPass > 55.7 || res.FirstFail < 55.7 {
		t.Errorf("bracket [%g, %g] does not contain the true trip 55.7", res.LastPass, res.FirstFail)
	}
	if res.FirstFail-res.LastPass > 4+1e-9 {
		t.Errorf("bracket wider than SF·IT at the crossing: [%g, %g]", res.LastPass, res.FirstFail)
	}
}

func TestSUTPKeepsRTPByDefault(t *testing.T) {
	s := &SUTP{Refine: true}
	if _, err := s.Search(&surface{trip: 30, orientation: PassLow}, opts(PassLow)); err != nil {
		t.Fatal(err)
	}
	ref := s.rtp
	if _, err := s.Search(&surface{trip: 45, orientation: PassLow}, opts(PassLow)); err != nil {
		t.Fatal(err)
	}
	if s.rtp != ref {
		t.Errorf("default SUTP re-anchored the reference: %g → %g", ref, s.rtp)
	}
}

func TestSUTPInvalidSF(t *testing.T) {
	s := &SUTP{SF: -1}
	s.SetReference(50)
	if _, err := s.Search(&surface{trip: 60, orientation: PassLow}, opts(PassLow)); err == nil {
		t.Error("negative SF accepted")
	}
}

func TestSUTPNonConvergedFirstSearchKeepsNoReference(t *testing.T) {
	s := &SUTP{Refine: true}
	res, err := s.Search(&surface{trip: 1000, orientation: PassLow}, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || s.haveRTP {
		t.Error("all-pass first search must not establish a reference")
	}
}

func TestSUTPAllFailFollowup(t *testing.T) {
	s := &SUTP{Refine: true}
	s.SetReference(50)
	res, err := s.Search(&surface{trip: -10, orientation: PassLow}, opts(PassLow))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("all-fail follow-up claimed convergence")
	}
	if res.TripPoint != 0 {
		t.Errorf("all-fail follow-up trip %g, want pass-side endpoint 0", res.TripPoint)
	}
}

func TestSUTPName(t *testing.T) {
	if (&SUTP{}).Name() != "search-until-trip-point" {
		t.Error("unexpected name")
	}
}
