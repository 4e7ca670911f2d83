// Semi-regular (separable) circulant embedding: uniform pitch along
// rows, arbitrary column positions. Routed layouts have exactly this
// shape — cell rows stay on the placement pitch while channel
// insertions of varying width push the columns off any uniform
// lattice — so the full 2-D embedding of embed.go never fits them.
// The covariance is still block-Toeplitz over rows (the kernel depends
// on the row separation only through Δr·DY) with full, non-Toeplitz
// cols×cols blocks. Embedding the row axis alone in a circulant of
// length M ≥ 2·Rows−1 block-diagonalizes the operator into M
// cross-spectral cols×cols matrices S[m] = {λ_cc'[m]}: quadratic
// forms contract per frequency in O(M·C·Σ_k C_k) for classes occupying
// C_k columns each, and correlated sampling factors each S[m] once and
// then costs O(M·C²) per draw — versus O(n²) per quadratic form and an
// impossible O(n³) Cholesky for the dense path.
//
// Soundness mirrors embed.go: quadratic forms use the raw spectra and
// are exact to FFT roundoff unconditionally. Sampling needs every
// S[m] PSD; the min-wrap kink of the long-range mismatch kernel makes
// a band of them mildly indefinite (a few percent of k(0) in clamped
// mass, and padding only worsens the kink — as it does for the 2-D
// embedding). The sampler clamps the negative eigenvalues and gates
// on the EXACT covariance perturbation the clamp induces: the clamped
// parts N[m] are inverse-transformed back to row lags, where their
// oscillating contributions largely cancel — measured ~7e-4 relative
// on routed 12-bit arrays whose nuclear-mass bound (the embed.go
// gate) says 4e-2. Factorization tries Cholesky per frequency first
// and falls back to a Jacobi eigen-clamp on the indefinite ones.
package fftk

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ccdac/internal/par"
)

// SemiGrid describes a separable lattice: Rows cells per column at
// uniform pitch DY (microns), columns at the arbitrary x positions
// ColX (microns, one per column).
type SemiGrid struct {
	Rows int
	DY   float64
	ColX []float64
}

// SemiEmbedding is the row-spectral form of one separable-lattice
// kernel. Construction (and QuadForms) is cheap; the sampling
// factorization is lazy — first CanSample/Sample pays it once.
type SemiEmbedding struct {
	g    SemiGrid
	cols int
	m    int // row-torus length, pow2 ≥ 2·Rows−1
	// S[f] is stored by distinct column separation: sep[f][u] is the
	// frequency-f spectrum of the u-th distinct separation's row kernel,
	// and the packed entry p (pair ci ≤ cj, p = cj(cj+1)/2 + ci) of S[f]
	// is sep[f][sepOf[p]].
	sep   [][]float64
	sepOf []int32
	plan  *Plan
	k0    float64
	tol   float64

	// KernelEvals counts kernel evaluations spent building the spectra.
	KernelEvals int64

	pool sync.Pool // *semiScratch for Sample

	sampleOnce sync.Once
	// fac holds one dense C×C factor per distinct frequency
	// d ∈ [0, m/2], scaled so F·Fᵀ = clamp(S[d])/m; frequency f uses
	// fac[min(f, m−f)].
	fac [][]float64
	// SampleRelErr is the exact entrywise covariance error of the draw
	// relative to k(0): the largest in-lattice lag response of the
	// clamped spectral parts. Zero until the factorization has run.
	SampleRelErr float64
	canSample    bool
}

type semiScratch struct {
	field []complex128 // C column time-series of length M, len C*M
	w     []complex128 // one frequency's column vector, len C
	xi    []float64    // normal draws, len 2C
}

// NewSemiEmbedding builds the row-spectral embedding of kernel(d²) —
// d² in µm² — over g. The column-pair spectra are built on up to
// opts.Workers goroutines, so kernel must be safe for concurrent use;
// they are bit-identical at any worker count. Construction only
// fails on degenerate arguments; whether the spectra support sampling
// is reported by CanSample.
func NewSemiEmbedding(g SemiGrid, kernel func(d2 float64) float64, opts EmbedOptions) (*SemiEmbedding, error) {
	cols := len(g.ColX)
	if g.Rows < 1 || cols < 1 {
		return nil, fmt.Errorf("fftk: semi embedding %dx%d, want >= 1", g.Rows, cols)
	}
	if !(g.DY >= 0) {
		return nil, fmt.Errorf("fftk: semi embedding row pitch %g, want >= 0", g.DY)
	}
	tol := opts.SampleTol
	if tol <= 0 {
		tol = 1e-2
	}
	k0 := kernel(0)
	if !(k0 > 0) || math.IsInf(k0, 0) || math.IsNaN(k0) {
		return nil, fmt.Errorf("fftk: kernel variance k(0) = %g, want finite > 0", k0)
	}

	m := torusDim(g.Rows)
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	half := m / 2
	pairs := cols * (cols + 1) / 2
	// The row kernel of pair (ci, cj) depends on the columns only
	// through Δx², and pairs at bit-identical Δx² have bit-identical
	// kernels and spectra. Routed layouts repeat column separations
	// (a 12-bit array has ~1.1k distinct ones among ~2.1k pairs), so
	// only the distinct separations are transformed.
	sepOf := make([]int32, pairs)
	var dx2s []float64
	index := make(map[uint64]int32, cols)
	for cj := 0; cj < cols; cj++ {
		for ci := 0; ci <= cj; ci++ {
			dx := g.ColX[ci] - g.ColX[cj]
			d2 := dx * dx
			u, ok := index[math.Float64bits(d2)]
			if !ok {
				u = int32(len(dx2s))
				index[math.Float64bits(d2)] = u
				dx2s = append(dx2s, d2)
			}
			sepOf[cj*(cj+1)/2+ci] = u
		}
	}
	e := &SemiEmbedding{
		g:           SemiGrid{Rows: g.Rows, DY: g.DY, ColX: append([]float64(nil), g.ColX...)},
		cols:        cols,
		m:           m,
		plan:        plan,
		k0:          k0,
		tol:         tol,
		sepOf:       sepOf,
		KernelEvals: int64(len(dx2s)) * int64(half+1),
	}
	// One length-M FFT per distinct separation: the row-direction
	// kernel k(Δx² + (Δr·DY)²) wrapped onto the torus. The wrap
	// min(s, M−s) makes it even — evaluated for s ≤ M/2, mirrored
	// above — so every spectrum is real and even. Each separation owns
	// its output row and its own transform, so the spectra are
	// bit-identical at any worker count.
	const sepChunk = 16
	nsep := len(dx2s)
	spectra := make([]float64, m*nsep) // [f·nsep + u]
	_ = par.ForN(opts.Workers, (nsep+sepChunk-1)/sepChunk, func(i int) error {
		buf := make([]complex128, m)
		for u := i * sepChunk; u < min((i+1)*sepChunk, nsep); u++ {
			for s := 0; s <= half; s++ {
				wr := float64(s) * g.DY
				buf[s] = complex(kernel(dx2s[u]+wr*wr), 0)
			}
			for s := half + 1; s < m; s++ {
				buf[s] = buf[m-s]
			}
			plan.Forward(buf)
			for f := 0; f < m; f++ {
				spectra[f*nsep+u] = real(buf[f])
			}
		}
		return nil
	})
	e.sep = make([][]float64, m)
	for f := range e.sep {
		e.sep[f] = spectra[f*nsep : (f+1)*nsep : (f+1)*nsep]
	}
	e.pool.New = func() any {
		return &semiScratch{
			field: make([]complex128, cols*m),
			w:     make([]complex128, cols),
			xi:    make([]float64, 2*cols),
		}
	}
	return e, nil
}

// Grid returns the embedded lattice description.
func (e *SemiEmbedding) Grid() SemiGrid { return e.g }

// Points returns the row-torus length M — together with the column
// count it bounds the spectral work per sample, O(M·C²).
func (e *SemiEmbedding) Points() int { return e.m }

// quadBlock is the number of frequencies one QuadForms work item
// contracts.
const quadBlock = 4

// QuadForms evaluates the full matrix of quadratic forms G[j][k] =
// 1_jᵀ C 1_k for the indicator vectors of the given classes, each a
// list of flat row-major cell indices r·Cols+c, on up to workers
// goroutines. The raw spectra make this exact to FFT roundoff even
// when some S[m] is indefinite.
//
// Each frequency's term is independent: the real S[f] times every
// class's real and imaginary indicator parts, then the class-pair dot
// products, skipping the columns a class does not occupy (their
// indicator entries are zero and add nothing). The terms are summed
// over frequencies in ascending order afterwards, so the forms are
// bitwise identical at any worker count — and to the serial
// complex-arithmetic contraction, whose per-entry operation order
// they keep.
func (e *SemiEmbedding) QuadForms(classes [][]int, workers int) [][]float64 {
	R, C, M := e.g.Rows, e.cols, e.m
	nc := len(classes)
	// Spectral indicators: one FFT per (class, column) with cells.
	spec := make([][]complex128, nc*C)
	var used []int
	for j, cls := range classes {
		for _, idx := range cls {
			r, c := idx/C, idx%C
			if r < 0 || r >= R || c < 0 {
				panic(fmt.Sprintf("fftk: QuadForms cell index %d outside %dx%d", idx, R, C))
			}
			if spec[j*C+c] == nil {
				spec[j*C+c] = make([]complex128, M)
				used = append(used, j*C+c)
			}
			spec[j*C+c][r] += 1
		}
	}
	_ = par.ForN(workers, len(used), func(i int) error {
		e.plan.Forward(spec[used[i]])
		return nil
	})
	occ := make([][]int, nc) // per class: occupied columns, ascending
	for j := range occ {
		for c := 0; c < C; c++ {
			if spec[j*C+c] != nil {
				occ[j] = append(occ[j], c)
			}
		}
	}

	terms := make([]float64, M*nc*nc) // [f][j][k], k ≥ j
	_ = par.ForN(workers, (M+quadBlock-1)/quadBlock, func(b int) error {
		xr, xi := make([]float64, nc*C), make([]float64, nc*C)
		yr, yi := make([]float64, nc*C), make([]float64, nc*C)
		sf := make([]float64, C*C)
		for f := b * quadBlock; f < min((b+1)*quadBlock, M); f++ {
			for j, cols := range occ {
				for _, c := range cols {
					v := spec[j*C+c][f]
					xr[j*C+c], xi[j*C+c] = real(v), imag(v)
				}
			}
			e.unpack(sf, f)
			for j, cols := range occ {
				o := j * C
				mulCols(yr[o:o+C], yi[o:o+C], sf, xr[o:o+C], xi[o:o+C], cols)
			}
			t := terms[f*nc*nc : (f+1)*nc*nc]
			for j, cols := range occ {
				xrj, xij := xr[j*C:j*C+C], xi[j*C:j*C+C]
				for k := j; k < nc; k++ {
					yrk, yik := yr[k*C:k*C+C], yi[k*C:k*C+C]
					dot := 0.0
					for _, c := range cols {
						dot += xrj[c]*yrk[c] + xij[c]*yik[c]
					}
					t[j*nc+k] = dot
				}
			}
		}
		return nil
	})

	G := make([][]float64, nc)
	for j := range G {
		G[j] = make([]float64, nc)
	}
	inv := 1 / float64(M)
	for j := 0; j < nc; j++ {
		for k := j; k < nc; k++ {
			s := 0.0
			for f := 0; f < M; f++ {
				s += terms[f*nc*nc+j*nc+k]
			}
			G[j][k] = s * inv
			G[k][j] = G[j][k]
		}
	}
	return G
}

// unpack writes S[f] into dst as a full symmetric row-major C×C
// matrix.
func (e *SemiEmbedding) unpack(dst []float64, f int) {
	C, row := e.cols, e.sep[f]
	p := 0
	for cj := 0; cj < C; cj++ {
		for ci := 0; ci <= cj; ci++ {
			v := row[e.sepOf[p]]
			dst[ci*C+cj] = v
			dst[cj*C+ci] = v
			p++
		}
	}
}

// mulCols sets (yr, yi) = s·(xr, xi) for the symmetric row-major C×C
// matrix s and one class's real and imaginary indicator parts, summing
// only over the class's occupied columns cols (ascending, so each
// entry accumulates in column order). Four output rows at a time keep
// their accumulators in registers; by symmetry their four matrix
// entries for one column are contiguous in s's row of that column.
func mulCols(yr, yi, s, xr, xi []float64, cols []int) {
	C := len(yr)
	ci := 0
	for ; ci+3 < C; ci += 4 {
		var r0, r1, r2, r3, i0, i1, i2, i3 float64
		for _, cj := range cols {
			sv := s[cj*C+ci : cj*C+ci+4 : cj*C+ci+4]
			a, b := xr[cj], xi[cj]
			r0 += sv[0] * a
			i0 += sv[0] * b
			r1 += sv[1] * a
			i1 += sv[1] * b
			r2 += sv[2] * a
			i2 += sv[2] * b
			r3 += sv[3] * a
			i3 += sv[3] * b
		}
		yr[ci], yr[ci+1], yr[ci+2], yr[ci+3] = r0, r1, r2, r3
		yi[ci], yi[ci+1], yi[ci+2], yi[ci+3] = i0, i1, i2, i3
	}
	for ; ci < C; ci++ {
		r, i := 0.0, 0.0
		for _, cj := range cols {
			v := s[cj*C+ci]
			r += v * xr[cj]
			i += v * xi[cj]
		}
		yr[ci], yi[ci] = r, i
	}
}

// CanSample reports whether the clamped factorization's covariance
// error stayed within SampleTol, running the one-time factorization
// if needed. QuadForms is sound either way.
func (e *SemiEmbedding) CanSample() bool {
	e.sampleOnce.Do(e.factorize)
	return e.canSample
}

// factorize builds one scaled factor per distinct frequency —
// Cholesky when S[d] is positive definite (the common case), Jacobi
// eigen-clamp otherwise — then evaluates the gate: the clamped parts
// N[d], inverse-transformed over frequencies, give the EXACT
// entrywise covariance deviation of the clamped operator at every row
// lag; the largest one inside the lattice (|Δr| ≤ Rows−1, and the
// transform is even in the lag) is SampleRelErr. This is far tighter
// than the nuclear-mass bound: the indefinite band's contributions
// oscillate and mostly cancel at in-lattice lags.
func (e *SemiEmbedding) factorize() {
	C, M := e.cols, e.m
	e.fac = make([][]float64, M/2+1)
	s := make([]float64, C*C)
	var clamped [][]float64 // packed symmetric N[d], nil where PSD
	for d := 0; d <= M/2; d++ {
		e.unpack(s, d)
		f, nf := factorPSD(s, C, e.k0)
		inv := 1 / math.Sqrt(float64(M))
		for i := range f {
			f[i] *= inv
		}
		e.fac[d] = f
		if nf != nil {
			if clamped == nil {
				clamped = make([][]float64, M/2+1)
			}
			clamped[d] = nf
		}
	}
	if clamped == nil {
		e.canSample = true
		return
	}
	buf := make([]complex128, M)
	worst := 0.0
	for cj := 0; cj < C; cj++ {
		for ci := 0; ci <= cj; ci++ {
			pij := cj*(cj+1)/2 + ci
			any := false
			for f := 0; f < M; f++ {
				if nf := clamped[min(f, M-f)]; nf != nil {
					buf[f] = complex(nf[pij], 0)
					any = true
				} else {
					buf[f] = 0
				}
			}
			if !any {
				continue
			}
			e.plan.Inverse(buf)
			for lag := 0; lag < e.g.Rows; lag++ {
				if err := math.Abs(real(buf[lag])); err > worst {
					worst = err
				}
			}
		}
	}
	e.SampleRelErr = worst / e.k0
	e.canSample = e.SampleRelErr <= e.tol
}

// factorPSD returns F with F·Fᵀ = clamp(s) for the symmetric C×C
// matrix s (row-major, not modified logically — contents are
// consumed). Cholesky handles the definite case in O(C³/3);
// indefinite or near-singular matrices take the Jacobi eigen-clamp,
// which also returns the clamped part N = Σ_{λ<0} (−λ)·v·vᵀ (packed
// symmetric, nil when nothing was clamped) so the caller can evaluate
// the exact perturbation clamp(s) − s = N induces.
func factorPSD(s []float64, n int, scale float64) (f, clampedPart []float64) {
	f = make([]float64, n*n)
	copy(f, s)
	if cholInPlace(f, n, scale) {
		return f, nil
	}
	vals, vecs := jacobiEig(append([]float64(nil), s...), n)
	var nf []float64
	for j := 0; j < n; j++ {
		v := vals[j]
		if v < 0 {
			if nf == nil {
				nf = make([]float64, n*(n+1)/2)
			}
			for cj := 0; cj < n; cj++ {
				base := cj * (cj + 1) / 2
				for ci := 0; ci <= cj; ci++ {
					nf[base+ci] += (-v) * vecs[ci*n+j] * vecs[cj*n+j]
				}
			}
			v = 0
		}
		root := math.Sqrt(v)
		for i := 0; i < n; i++ {
			f[i*n+j] = vecs[i*n+j] * root
		}
	}
	return f, nf
}

// cholInPlace attempts an in-place lower Cholesky of the row-major
// symmetric a, zeroing the strict upper triangle on success. It fails
// (returns false) on any pivot at or below a tiny fraction of scale,
// leaving indefinite and semidefinite matrices to the eigen path.
func cholInPlace(a []float64, n int, scale float64) bool {
	const pivotTol = 1e-14
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= pivotTol*scale {
			return false
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			v := a[i*n+j]
			for k := 0; k < j; k++ {
				v -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = v * inv
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			a[j*n+k] = 0
		}
	}
	return true
}

// jacobiEig diagonalizes the symmetric row-major n×n matrix a by
// cyclic Jacobi rotations: vals[j] is the j-th eigenvalue and
// vecs[i*n+j] the i-th component of its eigenvector. a is destroyed.
func jacobiEig(a []float64, n int) (vals, vecs []float64) {
	vecs = make([]float64, n*n)
	for i := 0; i < n; i++ {
		vecs[i*n+i] = 1
	}
	for sweep := 0; sweep < 30; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a[p*n+q] * a[p*n+q]
			}
		}
		diag := 0.0
		for p := 0; p < n; p++ {
			diag += a[p*n+p] * a[p*n+p]
		}
		if off <= 1e-30*(diag+off) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if apq == 0 {
					continue
				}
				theta := (a[q*n+q] - a[p*n+p]) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < n; i++ {
					aip, aiq := a[i*n+p], a[i*n+q]
					a[i*n+p] = c*aip - s*aiq
					a[i*n+q] = s*aip + c*aiq
				}
				for i := 0; i < n; i++ {
					api, aqi := a[p*n+i], a[q*n+i]
					a[p*n+i] = c*api - s*aqi
					a[q*n+i] = s*api + c*aqi
				}
				for i := 0; i < n; i++ {
					vip, viq := vecs[i*n+p], vecs[i*n+q]
					vecs[i*n+p] = c*vip - s*viq
					vecs[i*n+q] = s*vip + c*viq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i*n+i]
	}
	return vals, vecs
}

// Sample draws one zero-mean Gaussian field with covariance C into
// dst (row-major over the Rows×Cols lattice): per frequency the
// factor maps a complex-normal column vector into spectral space, one
// inverse-ordered forward transform per column brings it back, and
// the real part at the lattice cells carries the target covariance —
// the vector form of the scalar spectral draw. Exactly 2·M·Cols
// normal variates are consumed from rng in (frequency, column) order,
// so a fixed per-sample stream yields a byte-stable sample at any
// worker count. Callers must check CanSample first.
func (e *SemiEmbedding) Sample(dst []float64, rng *rand.Rand) {
	R, C, M := e.g.Rows, e.cols, e.m
	if len(dst) != R*C {
		panic(fmt.Sprintf("fftk: Sample length %d, want %d", len(dst), R*C))
	}
	e.sampleOnce.Do(e.factorize)
	sc := e.pool.Get().(*semiScratch)
	defer e.pool.Put(sc)
	for f := 0; f < M; f++ {
		for c := 0; c < C; c++ {
			sc.xi[2*c] = rng.NormFloat64()
			sc.xi[2*c+1] = rng.NormFloat64()
		}
		fm := e.fac[min(f, M-f)]
		for i := 0; i < C; i++ {
			re, im := 0.0, 0.0
			row := fm[i*C : i*C+C]
			for j, fv := range row {
				re += fv * sc.xi[2*j]
				im += fv * sc.xi[2*j+1]
			}
			sc.w[i] = complex(re, im)
		}
		for c := 0; c < C; c++ {
			sc.field[c*M+f] = sc.w[c]
		}
	}
	for c := 0; c < C; c++ {
		col := sc.field[c*M : c*M+M]
		e.plan.Forward(col)
		for r := 0; r < R; r++ {
			dst[r*C+c] = real(col[r])
		}
	}
}
