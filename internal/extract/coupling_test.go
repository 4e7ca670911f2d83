package extract

import (
	"context"
	"math"
	"sync"
	"testing"

	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// quadraticCouple is the seed's O(W²) all-pairs coupling sweep, kept
// here as the reference the binned interval-index sweep must match.
func quadraticCouple(l *route.Layout) (share []float64, cbb float64, pairs int) {
	share = make([]float64, len(l.Wires))
	for i := 0; i < len(l.Wires); i++ {
		wi := l.Wires[i]
		if wi.Bit == route.TopPlateBit {
			continue
		}
		for j := i + 1; j < len(l.Wires); j++ {
			wj := l.Wires[j]
			if wj.Bit == route.TopPlateBit || wj.Bit == wi.Bit {
				continue
			}
			if wi.Layer != wj.Layer {
				continue
			}
			sep := wi.Seg.Separation(wj.Seg)
			if sep == 0 || sep > couplingReach*l.Tech.SMinUm {
				continue
			}
			ov := wi.Seg.OverlapLen(wj.Seg)
			if ov <= 0 {
				continue
			}
			c := l.Tech.CouplingfFPerUm(sep) * ov
			cbb += c
			share[i] += c / 2
			share[j] += c / 2
			pairs++
		}
	}
	return share, cbb, pairs
}

// TestCoupleMatchesQuadraticReference: the binned sweep finds exactly
// the seed's pair set on every style; totals and per-wire shares agree
// to accumulation-order rounding.
func TestCoupleMatchesQuadraticReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		style place.Style
		bits  int
		par   []int
	}{
		{"spiral8", place.Spiral, 8, nil},
		{"chessboard6", place.Chessboard, 6, nil},
		{"bc8", place.BlockChessboard, 8, nil},
		{"spiral8-parallel", place.Spiral, 8, []int{0, 0, 0, 0, 0, 0, 0, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := layoutFor(t, tc.bits, tc.style, tc.par)
			var s Summary
			share, pairs := couple(l, &s)
			refShare, refCBB, refPairs := quadraticCouple(l)
			if pairs != refPairs {
				t.Fatalf("pairs = %d, quadratic reference %d", pairs, refPairs)
			}
			if math.Abs(s.CBBfF-refCBB) > 1e-9*math.Max(1, refCBB) {
				t.Errorf("CBBfF = %.15g, reference %.15g", s.CBBfF, refCBB)
			}
			for i := range share {
				if math.Abs(share[i]-refShare[i]) > 1e-12 {
					t.Errorf("wire %d share = %.15g, reference %.15g", i, share[i], refShare[i])
				}
			}
		})
	}
}

// TestCouplingHelper: the public benchmark surface agrees with couple.
func TestCouplingHelper(t *testing.T) {
	l := layoutFor(t, 8, place.Spiral, nil)
	cbb, pairs := Coupling(l)
	_, refCBB, refPairs := quadraticCouple(l)
	if pairs != refPairs || math.Abs(cbb-refCBB) > 1e-9*math.Max(1, refCBB) {
		t.Errorf("Coupling = (%g, %d), reference (%g, %d)", cbb, pairs, refCBB, refPairs)
	}
}

// TestEmptySummaryGuards: Tau and CriticalBit on a Summary with no
// bit networks degrade to sentinels instead of panicking.
func TestEmptySummaryGuards(t *testing.T) {
	var s Summary
	if got := s.CriticalBit(); got != -1 {
		t.Errorf("empty CriticalBit() = %d, want -1", got)
	}
	if got := s.Tau(); got != 0 {
		t.Errorf("empty Tau() = %g, want 0", got)
	}
}

// TestExtractSerialParallelEquivalent: the per-bit network build gives
// identical electrical results at any worker count.
func TestExtractSerialParallelEquivalent(t *testing.T) {
	l := layoutFor(t, 8, place.Spiral, nil)
	serial, err := ExtractContext(par.WithWorkers(context.Background(), -1), l)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExtractContext(par.WithWorkers(context.Background(), 8), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Bits) != len(parallel.Bits) {
		t.Fatalf("bit count %d vs %d", len(parallel.Bits), len(serial.Bits))
	}
	for b := range serial.Bits {
		if serial.Bits[b].TauSec != parallel.Bits[b].TauSec {
			t.Errorf("bit %d: tau %.17g parallel vs %.17g serial", b, parallel.Bits[b].TauSec, serial.Bits[b].TauSec)
		}
		if serial.Bits[b].RWireOhm != parallel.Bits[b].RWireOhm {
			t.Errorf("bit %d: R %.17g parallel vs %.17g serial", b, parallel.Bits[b].RWireOhm, serial.Bits[b].RWireOhm)
		}
	}
	if serial.CriticalBit() != parallel.CriticalBit() {
		t.Errorf("critical bit %d vs %d", parallel.CriticalBit(), serial.CriticalBit())
	}
}

// TestConcurrentExtractAndAnalyzeShareTechnology drives Extract and
// the covariance analysis concurrently on one *tech.Technology, so the
// race detector exercises the shared rho memo table and the parallel
// hot loops together.
func TestConcurrentExtractAndAnalyzeShareTechnology(t *testing.T) {
	tch := tech.FinFET12()
	pm, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	l, err := route.Route(pm, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := ExtractContext(context.Background(), l); err != nil {
				errc <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := variation.Analyze(pm, variation.GridPositioner(tch), tch, 0); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
