package drc

import (
	"context"
	"testing"

	"ccdac/internal/extract"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// TestPipelineOnRandomPlacements fuzzes the router, extractor and DRC
// with random valid common-centroid placements: any valid placement
// must route completely, extract into connected per-bit RC networks
// with positive delays, and come out DRC-clean.
func TestPipelineOnRandomPlacements(t *testing.T) {
	tch := tech.FinFET12()
	for _, bits := range []int{5, 6, 7, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			m, err := place.NewRandomSymmetric(bits, seed)
			if err != nil {
				t.Fatalf("bits=%d seed=%d: %v", bits, seed, err)
			}
			l, err := route.Route(m, tch, nil)
			if err != nil {
				t.Fatalf("bits=%d seed=%d: route: %v", bits, seed, err)
			}
			sum, err := extract.ExtractContext(context.Background(), l)
			if err != nil {
				t.Fatalf("bits=%d seed=%d: extract: %v", bits, seed, err)
			}
			for bit, bn := range sum.Bits {
				if bn.TauSec <= 0 {
					t.Fatalf("bits=%d seed=%d: bit %d tau %g", bits, seed, bit, bn.TauSec)
				}
			}
			if res := Check(l); !res.Clean() {
				t.Fatalf("bits=%d seed=%d: %d DRC violations, first: %v",
					bits, seed, len(res.Violations), res.Violations[0])
			}
		}
	}
}

// TestPipelineOnRandomPlacementsParallel extends the random-placement
// fuzz to parallel-wire routing: promoting the MSB (and the bit above
// it) to multiple wires must still route, extract and pass DRC —
// parallel trunks are the geometrically tightest layouts the router
// emits.
func TestPipelineOnRandomPlacementsParallel(t *testing.T) {
	tch := tech.FinFET12()
	for _, bits := range []int{5, 6, 7} {
		for _, p := range []int{2, 3, 4} {
			for seed := int64(1); seed <= 2; seed++ {
				m, err := place.NewRandomSymmetric(bits, seed)
				if err != nil {
					t.Fatalf("bits=%d seed=%d: %v", bits, seed, err)
				}
				par := make([]int, bits+1)
				for i := range par {
					par[i] = 1
				}
				par[bits] = p
				if bits >= 2 {
					par[bits-1] = p
				}
				l, err := route.Route(m, tch, par)
				if err != nil {
					t.Fatalf("bits=%d p=%d seed=%d: route: %v", bits, p, seed, err)
				}
				sum, err := extract.ExtractContext(context.Background(), l)
				if err != nil {
					t.Fatalf("bits=%d p=%d seed=%d: extract: %v", bits, p, seed, err)
				}
				for bit, bn := range sum.Bits {
					if bn.TauSec <= 0 {
						t.Fatalf("bits=%d p=%d seed=%d: bit %d tau %g", bits, p, seed, bit, bn.TauSec)
					}
				}
				if res := Check(l); !res.Clean() {
					t.Fatalf("bits=%d p=%d seed=%d: %d DRC violations, first: %v",
						bits, p, seed, len(res.Violations), res.Violations[0])
				}
			}
		}
	}
}

// TestRandomPlacementIsWorstRouting documents why constructive
// placement matters: a random CC placement routes with more vias than
// the spiral and in the vicinity of the chessboard.
func TestRandomPlacementIsWorstRouting(t *testing.T) {
	tch := tech.FinFET12()
	mR, err := place.NewRandomSymmetric(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	lR, err := route.Route(mR, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	mS, err := place.NewSpiral(8)
	if err != nil {
		t.Fatal(err)
	}
	lS, err := route.Route(mS, tch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lR.ViaCuts() < 3*lS.ViaCuts() {
		t.Errorf("random placement vias %d not well above spiral %d",
			lR.ViaCuts(), lS.ViaCuts())
	}
}
