package dacsim

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/extract"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// equalTauModel builds a 4-bit model where every bit settles with the
// same time constant.
func equalTauModel(t *testing.T, tau float64) *Model {
	t.Helper()
	caps := []float64{5, 5, 10, 20, 40}
	taus := []float64{0, tau, tau, tau, tau}
	m, err := New(4, caps, taus, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStaticMatchesBinaryWeights(t *testing.T) {
	m := equalTauModel(t, 1e-11)
	if got := m.Static(0); got != 0 {
		t.Errorf("Static(0) = %g", got)
	}
	if got := m.Static(8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Static(8) = %g, want 0.5", got)
	}
	if got := m.Static(15); math.Abs(got-15.0/16) > 1e-12 {
		t.Errorf("Static(15) = %g", got)
	}
}

func TestTransitionConvergesToFinal(t *testing.T) {
	m := equalTauModel(t, 1e-11)
	wave, err := m.Transition(3, 12, 1e-12, 400)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wave[len(wave)-1], m.Static(12); math.Abs(got-want) > 1e-9 {
		t.Errorf("final = %g, want %g", got, want)
	}
	// Starts near the old value.
	if got, want := wave[0], m.Static(3); math.Abs(got-want) > 0.1 {
		t.Errorf("start = %g, want near %g", got, want)
	}
}

func TestEqualTausProduceNoGlitch(t *testing.T) {
	// With identical taus every switching bit settles in lockstep:
	// the output moves monotonically inside the start/final band.
	m := equalTauModel(t, 1e-11)
	for _, pair := range [][2]int{{7, 8}, {3, 4}, {0, 15}} {
		g, err := m.GlitchVS(pair[0], pair[1], 1e-13, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if g > 1e-18 {
			t.Errorf("%d->%d: glitch %g with equal taus", pair[0], pair[1], g)
		}
	}
}

func TestSlowMSBGlitchesAtMajorCarry(t *testing.T) {
	// MSB 10x slower than the LSBs: at 0111 -> 1000 the LSBs collapse
	// fast while the MSB rises slowly — the classic mid-code glitch.
	caps := []float64{5, 5, 10, 20, 40}
	taus := []float64{0, 1e-12, 1e-12, 1e-12, 1e-11}
	m, err := New(4, caps, taus, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, g, err := m.WorstGlitch()
	if err != nil {
		t.Fatal(err)
	}
	if code != 7 {
		t.Errorf("worst glitch at %d->%d, want the major carry 7->8", code, code+1)
	}
	if g <= 0 {
		t.Error("major carry produced no glitch")
	}
	// The glitch grows with the tau mismatch.
	taus2 := []float64{0, 1e-12, 1e-12, 1e-12, 3e-11}
	m2, err := New(4, caps, taus2, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := m2.WorstGlitch()
	if err != nil {
		t.Fatal(err)
	}
	if g2 <= g {
		t.Errorf("3x slower MSB glitch %g not above %g", g2, g)
	}
}

func TestSettleSecondsSinglePole(t *testing.T) {
	m := equalTauModel(t, 1e-11)
	// 0 -> 8 flips only the MSB: pure single pole, settle to tol LSB of
	// a half-scale step takes tau*ln((2^N*step)/tol)=tau*ln(8/0.25 *...).
	got, err := m.SettleSeconds(0, 8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Deviation starts at 0.5, target 0.25/16 = 0.015625: t = tau ln(32).
	want := 1e-11 * math.Log(0.5/(0.25/16))
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("settle = %g, want %g", got, want)
	}
}

func TestMaxUpdateRate(t *testing.T) {
	m := equalTauModel(t, 1e-11)
	rate, err := m.MaxUpdateRateHz()
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || math.IsInf(rate, 0) {
		t.Fatalf("rate = %g", rate)
	}
	// Slower taus -> slower updates.
	m2 := equalTauModel(t, 4e-11)
	rate2, err := m2.MaxUpdateRateHz()
	if err != nil {
		t.Fatal(err)
	}
	if rate2 >= rate {
		t.Errorf("4x slower taus gave rate %g >= %g", rate2, rate)
	}
}

func TestFromExtractEndToEnd(t *testing.T) {
	pm, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	l, err := route.Route(pm, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := extract.ExtractContext(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromExtract(sum, ccmatrix.UnitCounts(6), tch.Unit.CfF, tch.VRef)
	if err != nil {
		t.Fatal(err)
	}
	code, g, err := m.WorstGlitch()
	if err != nil {
		t.Fatal(err)
	}
	if g < 0 {
		t.Error("negative glitch")
	}
	if code < 0 || code >= 63 {
		t.Errorf("worst glitch code %d out of range", code)
	}
	// The dynamic update rate should be the same order as the f3dB
	// model's prediction.
	rate, err := m.MaxUpdateRateHz()
	if err != nil {
		t.Fatal(err)
	}
	f3db := extract.F3dB(6, sum.Tau())
	if rate < f3db/10 || rate > f3db*10 {
		t.Errorf("dynamic rate %g vs f3dB %g: more than 10x apart", rate, f3db)
	}
}

func TestGlitchOrderingAcrossStyles(t *testing.T) {
	// The chessboard's slower bits settle far more unevenly than the
	// spiral's: its worst-case glitch impulse must be larger.
	tch := tech.FinFET12()
	glitch := func(style place.Style) float64 {
		var pm *ccmatrix.Matrix
		var err error
		if style == place.Spiral {
			pm, err = place.NewSpiral(6)
		} else {
			pm, err = place.NewChessboard(6)
		}
		if err != nil {
			t.Fatal(err)
		}
		l, err := route.Route(pm, tch, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := extract.ExtractContext(context.Background(), l)
		if err != nil {
			t.Fatal(err)
		}
		m, err := FromExtract(sum, ccmatrix.UnitCounts(6), tch.Unit.CfF, tch.VRef)
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := m.WorstGlitch()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if gs, gc := glitch(place.Spiral), glitch(place.Chessboard); gc <= gs {
		t.Errorf("chessboard glitch %g not above spiral %g", gc, gs)
	}
}

func TestRejectsBadInputs(t *testing.T) {
	if _, err := New(1, []float64{1, 1}, []float64{0, 1}, 1); err == nil {
		t.Error("1-bit model must be rejected")
	}
	if _, err := New(2, []float64{1, 1}, []float64{0, 1, 1}, 1); err == nil {
		t.Error("short capacitor list must be rejected")
	}
	if _, err := New(2, []float64{1, 1, 2}, []float64{0, 1, 0}, 1); err == nil {
		t.Error("zero tau must be rejected")
	}
	m := equalTauModel(t, 1e-11)
	if _, err := m.Transition(0, 99, 1e-12, 10); err == nil {
		t.Error("out-of-range code must be rejected")
	}
	if _, err := m.Transition(0, 1, 0, 10); err == nil {
		t.Error("zero dt must be rejected")
	}
	if _, err := m.SettleSeconds(0, 1, 0); err == nil {
		t.Error("zero tolerance must be rejected")
	}
}
