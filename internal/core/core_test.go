package core

import (
	"context"
	"math"
	"testing"
	"time"

	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSpiralComplete(t *testing.T) {
	r := run(t, Config{Bits: 6, Style: place.Spiral, MaxParallel: 2})
	if r.Placement == nil || r.Layout == nil || r.Electrical == nil || r.NL == nil {
		t.Fatal("incomplete result")
	}
	if r.F3dBHz <= 0 {
		t.Fatal("non-positive f3dB")
	}
	if r.NL.MaxAbsINL > 0.5 || r.NL.MaxAbsDNL > 0.5 {
		t.Errorf("6-bit spiral INL/DNL out of spec: %+v", r.NL)
	}
	if r.CriticalBit < 0 || r.CriticalBit > 6 {
		t.Errorf("critical bit %d out of range", r.CriticalBit)
	}
}

func TestParallelIterationPromotesCriticalBits(t *testing.T) {
	r := run(t, Config{Bits: 8, Style: place.Spiral, MaxParallel: 2, SkipNL: true})
	promoted := 0
	for _, p := range r.Par {
		if p == 2 {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no bit was promoted to parallel wires")
	}
	// The final critical bit must itself be parallel (loop invariant).
	if r.Par[r.CriticalBit] != 2 {
		t.Errorf("critical bit %d not parallel-routed", r.CriticalBit)
	}
	// Parallel routing must beat the p=1 flow.
	base := run(t, Config{Bits: 8, Style: place.Spiral, SkipNL: true})
	if r.F3dBHz <= base.F3dBHz {
		t.Errorf("parallel f3dB %g not above baseline %g", r.F3dBHz, base.F3dBHz)
	}
}

func TestPaperF3dBOrdering(t *testing.T) {
	// The paper's table condition: S and BC run with parallel routing,
	// the [7] chessboard baseline without. Required shape:
	// f3dB(S) > f3dB(BC) > f3dB([7]).
	s := run(t, Config{Bits: 8, Style: place.Spiral, MaxParallel: 2, SkipNL: true})
	bc, _, err := RunBestBCContext(context.Background(), Config{Bits: 8, MaxParallel: 2, SkipNL: true})
	if err != nil {
		t.Fatal(err)
	}
	cb := run(t, Config{Bits: 8, Style: place.Chessboard, SkipNL: true})
	if !(s.F3dBHz > bc.F3dBHz && bc.F3dBHz > cb.F3dBHz) {
		t.Errorf("f3dB ordering violated: S=%.3g BC=%.3g CB=%.3g",
			s.F3dBHz, bc.F3dBHz, cb.F3dBHz)
	}
}

func TestPaperNLOrdering(t *testing.T) {
	// Table II shape at 8 bits: chessboard best INL/DNL, spiral worst.
	s := run(t, Config{Bits: 8, Style: place.Spiral, MaxParallel: 2})
	cb := run(t, Config{Bits: 8, Style: place.Chessboard})
	if cb.NL.MaxAbsINL >= s.NL.MaxAbsINL {
		t.Errorf("INL ordering violated: S=%g CB=%g", s.NL.MaxAbsINL, cb.NL.MaxAbsINL)
	}
	if s.NL.MaxAbsDNL > 0.5 {
		t.Errorf("spiral 8-bit DNL %g above 0.5 LSB", s.NL.MaxAbsDNL)
	}
}

func TestChessboardDoublesOddBitArea(t *testing.T) {
	// Table II: [7]'s 7-bit array equals its 8-bit array (doubling).
	odd := run(t, Config{Bits: 7, Style: place.Chessboard, SkipNL: true})
	even := run(t, Config{Bits: 8, Style: place.Chessboard, SkipNL: true})
	ratio := odd.Electrical.AreaUm2 / even.Electrical.AreaUm2
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("7-bit/8-bit chessboard area ratio %g, want ~1", ratio)
	}
	// Spiral 7-bit is about half the 8-bit area.
	sOdd := run(t, Config{Bits: 7, Style: place.Spiral, SkipNL: true})
	sEven := run(t, Config{Bits: 8, Style: place.Spiral, SkipNL: true})
	if r := sOdd.Electrical.AreaUm2 / sEven.Electrical.AreaUm2; r > 0.7 {
		t.Errorf("7-bit/8-bit spiral area ratio %g, want ~0.5", r)
	}
}

func TestRunBestBCSelection(t *testing.T) {
	best, all, err := RunBestBCContext(context.Background(), Config{Bits: 6, MaxParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no BC candidates")
	}
	for _, r := range all {
		if r.NL.MaxAbsDNL <= 0.5 && r.NL.MaxAbsINL <= 0.5 && r.F3dBHz > best.F3dBHz {
			t.Errorf("candidate %+v beats reported best (%g > %g)",
				r.Config.BC, r.F3dBHz, best.F3dBHz)
		}
	}
}

func TestRunAnnealedBaseline(t *testing.T) {
	r := run(t, Config{
		Bits: 6, Style: place.Annealed,
		Anneal: place.AnnealConfig{Seed: 1, Moves: 3000},
	})
	if r.F3dBHz <= 0 || r.NL.MaxAbsINL <= 0 {
		t.Fatal("annealed flow produced degenerate metrics")
	}
	if _, err := Run(Config{Bits: 7, Style: place.Annealed}); err == nil {
		t.Error("odd-bit annealed baseline must fail, as in the paper")
	}
}

func TestConstructiveRuntimes(t *testing.T) {
	// Table III: constructive place+route far below a second.
	for _, style := range []place.Style{place.Spiral, place.BlockChessboard} {
		r := run(t, Config{Bits: 8, Style: style, MaxParallel: 2, SkipNL: true})
		if pr := r.PlaceTime + r.RouteTime; pr > 2*time.Second {
			t.Errorf("%v place+route took %v; the method must stay constructive-fast", style, pr)
		}
	}
}

func TestParallelSweepMonotoneGain(t *testing.T) {
	f, err := ParallelSweep(Config{Bits: 6, Style: place.Spiral}, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(f[1] > f[0] && f[2] > f[1]) {
		t.Errorf("f3dB not increasing with parallel wires: %v", f)
	}
	// Diminishing returns: gain 2->4 below gain 1->2 squared.
	if f[2]/f[1] > f[1]/f[0]*1.5 {
		t.Errorf("no diminishing returns: %v", f)
	}
}

// mismatchSpan returns the relative systematic spread of a result's
// placement at the worst of steps gradient angles, a diagnostic for
// common-centroid quality: max_k |DeltaC_k^sys| / C_k over capacitors
// k >= 2.
func mismatchSpan(res *Result, steps int) (float64, error) {
	t := res.Config.Tech
	if t == nil {
		t = tech.FinFET12()
	}
	sweep, err := variation.SweepThetaContext(context.Background(), res.Placement, res.Layout.CellCenter, t, steps)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, a := range sweep {
		for k := 2; k <= a.Bits; k++ {
			rel := math.Abs(a.DCSys(k)) / (float64(a.Counts[k]) * a.CuFF)
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst, nil
}

func TestMismatchSpanSmall(t *testing.T) {
	r := run(t, Config{Bits: 6, Style: place.Spiral, SkipNL: true})
	span, err := mismatchSpan(r, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric placement cancels the gradient to first order.
	if span > 1e-6 {
		t.Errorf("systematic span %g too large for a CC placement", span)
	}
}

func TestRunRejectsUnknownStyle(t *testing.T) {
	if _, err := Run(Config{Bits: 6, Style: place.Style(99)}); err == nil {
		t.Error("unknown style must be rejected")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := run(t, Config{Bits: 6, Style: place.Spiral, MaxParallel: 2, SkipNL: true})
	b := run(t, Config{Bits: 6, Style: place.Spiral, MaxParallel: 2, SkipNL: true})
	if a.F3dBHz != b.F3dBHz || a.Electrical.ViaCuts != b.Electrical.ViaCuts {
		t.Error("flow must be deterministic")
	}
}

func TestPlaceDispatchDefaults(t *testing.T) {
	// BC with a zero-value parameter block picks a feasible default,
	// including at small bit counts where CoreBits must drop to 2.
	for _, bits := range []int{4, 6, 10} {
		m, err := Place(Config{Bits: bits, Style: place.BlockChessboard})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
	// Annealed with a zero config gets the default anneal settings.
	m, err := Place(Config{Bits: 4, Style: place.Annealed})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSweepPropagatesErrors(t *testing.T) {
	if _, err := ParallelSweep(Config{Bits: 99, Style: place.Spiral}, []int{1}); err == nil {
		t.Fatal("invalid bits must propagate")
	}
}

func TestRunBestBCInfeasibleBits(t *testing.T) {
	if _, _, err := RunBestBCContext(context.Background(), Config{Bits: 3, SkipNL: true}); err == nil {
		t.Fatal("3-bit BC sweep has no feasible structures and must error")
	}
}
