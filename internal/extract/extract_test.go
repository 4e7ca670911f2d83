package extract

import (
	"context"
	"math"
	"testing"

	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

func extracted(t *testing.T, bits int, style place.Style, par []int) *Summary {
	t.Helper()
	l := layoutFor(t, bits, style, par)
	s, err := ExtractContext(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func layoutFor(t *testing.T, bits int, style place.Style, par []int) *route.Layout {
	t.Helper()
	var l *route.Layout
	switch style {
	case place.Spiral:
		pm, err := place.NewSpiral(bits)
		if err != nil {
			t.Fatal(err)
		}
		l, err = route.Route(pm, tech.FinFET12(), par)
		if err != nil {
			t.Fatal(err)
		}
	case place.Chessboard:
		pm, err := place.NewChessboard(bits)
		if err != nil {
			t.Fatal(err)
		}
		l, err = route.Route(pm, tech.FinFET12(), par)
		if err != nil {
			t.Fatal(err)
		}
	default:
		pm, err := place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
		if err != nil {
			t.Fatal(err)
		}
		l, err = route.Route(pm, tech.FinFET12(), par)
		if err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestExtractSpiral6(t *testing.T) {
	s := extracted(t, 6, place.Spiral, nil)
	if len(s.Bits) != 7 {
		t.Fatalf("bit nets = %d, want 7", len(s.Bits))
	}
	for bit, b := range s.Bits {
		if b.TauSec <= 0 {
			t.Errorf("bit %d: non-positive tau %g", bit, b.TauSec)
		}
		if len(b.CellNodes) == 0 {
			t.Errorf("bit %d: no cell nodes", bit)
		}
		// Total capacitance of the net includes all units' C_u.
		want := float64(len(b.CellNodes)) * 5.0
		if b.Net.TotalCapFF() < want {
			t.Errorf("bit %d: net cap %g below unit load %g", bit, b.Net.TotalCapFF(), want)
		}
	}
	if s.CTSfF <= 0 || s.CWirefF <= 0 || s.WirelengthUm <= 0 || s.ViaCuts <= 0 {
		t.Errorf("degenerate summary: %+v", s)
	}
}

func TestElectricalOrderingAcrossStyles(t *testing.T) {
	// Table I shape: spiral best (lowest C_wire, C_BB, vias, R), then
	// block chessboard, chessboard worst.
	sp := extracted(t, 8, place.Spiral, nil)
	bc := extracted(t, 8, place.BlockChessboard, nil)
	cb := extracted(t, 8, place.Chessboard, nil)

	if !(sp.CWirefF < bc.CWirefF && bc.CWirefF < cb.CWirefF) {
		t.Errorf("C_wire ordering: S=%g BC=%g CB=%g", sp.CWirefF, bc.CWirefF, cb.CWirefF)
	}
	if !(sp.ViaCuts < bc.ViaCuts && bc.ViaCuts < cb.ViaCuts) {
		t.Errorf("via ordering: S=%d BC=%d CB=%d", sp.ViaCuts, bc.ViaCuts, cb.ViaCuts)
	}
	// At p=1 the shared bridge rail dominates both BC and chessboard;
	// the decisive BC-vs-chessboard gap appears once parallel routing
	// is applied (the paper's table condition, asserted in core).
	// The spiral must already be clearly fastest here.
	if !(sp.Tau() < 0.7*bc.Tau() && sp.Tau() < 0.7*cb.Tau()) {
		t.Errorf("tau ordering: S=%g BC=%g CB=%g", sp.Tau(), bc.Tau(), cb.Tau())
	}
	if sp.CBBfF > cb.CBBfF {
		t.Errorf("C_BB: S=%g above CB=%g", sp.CBBfF, cb.CBBfF)
	}
}

func TestF3dBFormula(t *testing.T) {
	// Eq. 16 at N=6, tau=2.3e-12: f = 1/(2*8*ln2*tau).
	tau := 2.3e-12
	want := 1 / (2 * 8 * math.Ln2 * tau)
	if got := F3dB(6, tau); math.Abs(got-want) > 1e-6*want {
		t.Errorf("F3dB = %g, want %g", got, want)
	}
	if !math.IsInf(F3dB(6, 0), 1) {
		t.Error("zero tau must give +Inf frequency")
	}
	// Settling time: t_settle = (N+2) ln2 tau; f_3dB = 1/(2 t_settle).
	if got := SettlingTime(6, tau); math.Abs(got-8*math.Ln2*tau) > 1e-20 {
		t.Errorf("SettlingTime = %g", got)
	}
	if got := F3dB(6, tau) * 2 * SettlingTime(6, tau); math.Abs(got-1) > 1e-12 {
		t.Errorf("f3dB * 2*t_settle = %g, want 1", got)
	}
}

func TestParallelWiresImproveTau(t *testing.T) {
	base := extracted(t, 6, place.Spiral, nil)
	crit := base.CriticalBit()
	par := make([]int, 7)
	par[crit] = 2
	fast := extracted(t, 6, place.Spiral, par)
	gain := base.Bits[crit].TauSec / fast.Bits[crit].TauSec
	// Paper Fig 6(a): gain between ~1.5x and 4x for p=2 (between the
	// wire-dominated 2x and via-dominated 4x, minus added capacitance).
	if gain < 1.2 || gain > 4.5 {
		t.Errorf("p=2 tau gain = %g, want within (1.2, 4.5)", gain)
	}
}

func TestCriticalBitIsMSBish(t *testing.T) {
	// The critical bit carries the largest RC network; it must be one
	// of the top few bits.
	for _, style := range []place.Style{place.Spiral, place.Chessboard} {
		s := extracted(t, 8, style, nil)
		if crit := s.CriticalBit(); crit < 5 {
			t.Errorf("%v: critical bit %d implausibly small", style, crit)
		}
	}
}

func TestRTotalsPositiveAndOrdered(t *testing.T) {
	sp := extracted(t, 8, place.Spiral, nil)
	cb := extracted(t, 8, place.Chessboard, nil)
	spCrit := sp.Bits[sp.CriticalBit()]
	cbCrit := cb.Bits[cb.CriticalBit()]
	if spCrit.RWireOhm <= 0 || spCrit.RViaOhm <= 0 {
		t.Error("spiral critical-bit resistances must be positive")
	}
	spTotal := spCrit.RWireOhm + spCrit.RViaOhm
	cbTotal := cbCrit.RWireOhm + cbCrit.RViaOhm
	if spTotal >= cbTotal {
		t.Errorf("critical-bit R: spiral %g not below chessboard %g", spTotal, cbTotal)
	}
	if spCrit.RViaOhm >= cbCrit.RViaOhm {
		t.Errorf("critical-bit R_V: spiral %g not below chessboard %g", spCrit.RViaOhm, cbCrit.RViaOhm)
	}
}

func TestCouplingSymmetricAndBounded(t *testing.T) {
	s := extracted(t, 8, place.Chessboard, nil)
	if s.CBBfF <= 0 {
		t.Error("chessboard must exhibit trunk-to-trunk coupling")
	}
	// Coupling cannot exceed total wire capacitance by an order of
	// magnitude (sanity bound).
	if s.CBBfF > 10*s.CWirefF {
		t.Errorf("C_BB %g implausibly large vs C_wire %g", s.CBBfF, s.CWirefF)
	}
}

func TestTopPlateCapScalesWithArray(t *testing.T) {
	small := extracted(t, 6, place.Spiral, nil)
	large := extracted(t, 8, place.Spiral, nil)
	if large.CTSfF <= small.CTSfF {
		t.Errorf("C_TS must grow with array size: 6-bit %g, 8-bit %g", small.CTSfF, large.CTSfF)
	}
}
