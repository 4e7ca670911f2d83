package fftk

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/geom"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
)

// semiSpectraRef is the serial full-torus spectra build the
// half-spectrum, pair-parallel constructor must reproduce bit for bit:
// the kernel evaluated at every torus offset, one transform per pair,
// all M frequencies kept.
func semiSpectraRef(g SemiGrid, kernel func(float64) float64) [][]float64 {
	cols := len(g.ColX)
	m := torusDim(g.Rows)
	plan, err := NewPlan(m)
	if err != nil {
		panic(err)
	}
	lamT := make([][]float64, m)
	for f := range lamT {
		lamT[f] = make([]float64, cols*(cols+1)/2)
	}
	buf := make([]complex128, m)
	for cj := 0; cj < cols; cj++ {
		for ci := 0; ci <= cj; ci++ {
			dx := g.ColX[ci] - g.ColX[cj]
			for s := 0; s < m; s++ {
				wr := float64(min(s, m-s)) * g.DY
				buf[s] = complex(kernel(dx*dx+wr*wr), 0)
			}
			plan.Forward(buf)
			pij := cj*(cj+1)/2 + ci
			for f := 0; f < m; f++ {
				lamT[f][pij] = real(buf[f])
			}
		}
	}
	return lamT
}

// quadFormsRef is the serial full-spectrum contraction over the
// reference spectra: every frequency 0..M-1, complex arithmetic, one
// class at a time.
func quadFormsRef(g SemiGrid, lamT [][]float64, classes [][]int) [][]float64 {
	C, M := len(g.ColX), len(lamT)
	plan, err := NewPlan(M)
	if err != nil {
		panic(err)
	}
	nc := len(classes)
	spec := make([][]complex128, nc*C)
	for j, cls := range classes {
		for _, idx := range cls {
			r, c := idx/C, idx%C
			if spec[j*C+c] == nil {
				spec[j*C+c] = make([]complex128, M)
			}
			spec[j*C+c][r] += 1
		}
	}
	for _, v := range spec {
		if v != nil {
			plan.Forward(v)
		}
	}
	G := make([][]float64, nc)
	for j := range G {
		G[j] = make([]float64, nc)
	}
	a := make([]complex128, nc*C)
	y := make([]complex128, nc*C)
	for f := 0; f < M; f++ {
		for i, v := range spec {
			if v == nil {
				a[i] = 0
			} else {
				a[i] = v[f]
			}
		}
		lam := lamT[f]
		for j := 0; j < nc; j++ {
			aj := a[j*C : j*C+C]
			yj := y[j*C : j*C+C]
			for i := range yj {
				yj[i] = 0
			}
			for cj := 0; cj < C; cj++ {
				base := cj * (cj + 1) / 2
				for ci := 0; ci < cj; ci++ {
					v := complex(lam[base+ci], 0)
					yj[ci] += v * aj[cj]
					yj[cj] += v * aj[ci]
				}
				yj[cj] += complex(lam[base+cj], 0) * aj[cj]
			}
		}
		for j := 0; j < nc; j++ {
			for k := j; k < nc; k++ {
				dot := 0.0
				for c := 0; c < C; c++ {
					av, yv := a[j*C+c], y[k*C+c]
					dot += real(av)*real(yv) + imag(av)*imag(yv)
				}
				G[j][k] += dot
			}
		}
	}
	inv := 1 / float64(M)
	for j := 0; j < nc; j++ {
		for k := j; k < nc; k++ {
			G[j][k] *= inv
			G[k][j] = G[j][k]
		}
	}
	return G
}

// routedSemiCase is one routed product layout on its separable
// lattice, with the flow's mismatch kernel and capacitor classes.
type routedSemiCase struct {
	name    string
	grid    SemiGrid
	kernel  func(float64) float64
	classes [][]int
}

func routedSemiCases(t *testing.T, bitsList []int) []routedSemiCase {
	t.Helper()
	tch := tech.FinFET12()
	sigmaU2 := tch.SigmaU() * tch.SigmaU()
	rho := tch.RhoSqKernel()
	kernel := func(d2 float64) float64 { return sigmaU2 * rho(d2) }
	var out []routedSemiCase
	for _, bits := range bitsList {
		for _, st := range []struct {
			name string
			mk   func(int) (*ccmatrix.Matrix, error)
		}{
			{"spiral", place.NewSpiral},
			{"chessboard", place.NewChessboard},
			{"bc", func(b int) (*ccmatrix.Matrix, error) {
				return place.NewBlockChessboard(b, place.BCParams{CoreBits: 4, BlockCells: 2})
			}},
		} {
			m, err := st.mk(bits)
			if err != nil {
				t.Fatal(err)
			}
			l, err := route.Route(m, tch, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := SemiGrid{Rows: m.Rows, ColX: make([]float64, m.Cols)}
			for c := range g.ColX {
				g.ColX[c] = l.CellCenter(geom.Cell{Row: 0, Col: c}).X
			}
			if m.Rows > 1 {
				g.DY = l.CellCenter(geom.Cell{Row: 1, Col: 0}).Y - l.CellCenter(geom.Cell{Row: 0, Col: 0}).Y
			}
			classes := make([][]int, bits+1)
			for k := range classes {
				for _, c := range m.CellsOf(k) {
					classes[k] = append(classes[k], c.Row*m.Cols+c.Col)
				}
			}
			out = append(out, routedSemiCase{fmt.Sprintf("%s%d", st.name, bits), g, kernel, classes})
		}
	}
	return out
}

// TestSemiSpectraBitIdentical: the half-torus, deduplicated, parallel
// constructor reproduces the serial full-torus build bit for bit on
// routed product layouts at every worker count — the property that
// keeps the separable Monte-Carlo sampler, and every yield sample
// hash, unchanged.
func TestSemiSpectraBitIdentical(t *testing.T) {
	bitsList := []int{8, 10, 12}
	if testing.Short() {
		bitsList = []int{8}
	}
	for _, tc := range routedSemiCases(t, bitsList) {
		t.Run(tc.name, func(t *testing.T) {
			ref := semiSpectraRef(tc.grid, tc.kernel)
			M := len(ref)
			for _, w := range []int{1, 2, 8} {
				e, err := NewSemiEmbedding(tc.grid, tc.kernel, EmbedOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				if len(e.sep) != M {
					t.Fatalf("workers %d: %d stored frequencies, want %d", w, len(e.sep), M)
				}
				for f := range ref {
					for p, want := range ref[f] {
						if v := e.sep[f][e.sepOf[p]]; math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("workers %d: S[%d] slot %d = %v, serial reference %v", w, f, p, v, want)
						}
					}
				}
				seps := map[float64]bool{}
				for _, xi := range tc.grid.ColX {
					for _, xj := range tc.grid.ColX {
						seps[(xi-xj)*(xi-xj)] = true
					}
				}
				if want := int64(len(seps)) * int64(M/2+1); e.KernelEvals != want {
					t.Errorf("workers %d: KernelEvals = %d, want %d (one half-torus per distinct separation)", w, e.KernelEvals, want)
				}
			}
		})
	}
}

// TestSemiQuadFormsWorkerInvariant: the per-frequency, lane-batched
// contraction is bitwise identical at any worker count and to the
// serial complex-arithmetic reference. The golden outputs of routed
// designs depend on the latter: the DNL σ is a small difference of
// large covariance terms, so roundoff-level covariance changes move it
// by ~1e-10 relative.
func TestSemiQuadFormsWorkerInvariant(t *testing.T) {
	bitsList := []int{8, 10, 12}
	if testing.Short() {
		bitsList = []int{8}
	}
	// Targets that fuse multiply-adds may round the reference's complex
	// products differently; there the agreement is to roundoff.
	tol := 0.0
	if runtime.GOARCH != "amd64" {
		tol = 1e-13
	}
	for _, tc := range routedSemiCases(t, bitsList) {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewSemiEmbedding(tc.grid, tc.kernel, EmbedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := quadFormsRef(tc.grid, semiSpectraRef(tc.grid, tc.kernel), tc.classes)
			for _, w := range []int{1, 2, 3, 8} {
				got := e.QuadForms(tc.classes, w)
				for j := range got {
					for k := range got[j] {
						g, r := got[j][k], want[j][k]
						if math.Float64bits(g) != math.Float64bits(r) && math.Abs(g-r) > tol*math.Abs(r) {
							t.Fatalf("workers %d: G[%d][%d] = %v, serial reference %v", w, j, k, g, r)
						}
					}
				}
			}
		})
	}
}
