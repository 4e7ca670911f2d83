// Package dacmodel evaluates the circuit-level metrics of Sec. III:
// the charge-scaling DAC transfer function under capacitor
// nonidealities (Eq. 9), the 3σ mismatch-induced INL/DNL (Eqs. 7, 8,
// 10-14), and a Monte-Carlo variant used to cross-check the 3σ model.
package dacmodel

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ccdac/internal/linalg"
	"ccdac/internal/par"
	"ccdac/internal/variation"
)

// Parasitics carries the routing parasitics entering Eqs. 10-11.
// With the paper's nonoverlapped routing, the top-to-bottom-plate
// terms are negligible (Sec. IV-B1) and default to zero.
type Parasitics struct {
	// CTSfF is the total top-plate-to-substrate capacitance C^TS.
	CTSfF float64
	// CTBOnfF and CTBOfffF are the top-to-bottom-plate parasitics of
	// the switched-on and switched-off capacitor groups.
	CTBOnfF, CTBOfffF float64
}

// Result summarizes an INL/DNL sweep over all input codes.
type Result struct {
	// MaxAbsDNL and MaxAbsINL are the paper's |DNL| and |INL| in LSB.
	MaxAbsDNL, MaxAbsINL float64
	// WorstDNLCode and WorstINLCode are the codes attaining them.
	WorstDNLCode, WorstINLCode int
	// ThetaRad is the gradient angle of the underlying analysis.
	ThetaRad float64
}

// IdealOut returns the ideal ratiometric output V_OUT/V_REF of Eq. 2
// for the given input code.
func IdealOut(bits, code int) float64 {
	return float64(code) / float64(int(1)<<bits)
}

// Nonlinearity runs the paper's 3σ INL/DNL analysis over all 2^N codes
// for one variation analysis (one gradient angle).
//
// The systematic (gradient) part perturbs Eq. 9 deterministically:
// DeltaC_ON = sum D_k DC_k^sys + C^TB_ON (Eq. 10) and DeltaC_T =
// sum DC_k^sys + C^TB_ON + C^TB_OFF + C^TS (Eq. 11). For the random
// part, the statistical summations of Eqs. 13-14 enter the *ratio*
// R(i) = (C_ON+ΔC_ON)/(C_T+ΔC_T); because ΔC_ON and ΔC_T are strongly
// correlated (C_ON ⊂ C_T), the 3σ worst case must be taken on the
// first-order ratio error
//
//	L(i) = (ΔC_ON(i) − R0(i)·ΔC_T) / C_T = Σ_k w_k(i) ΔC_k,
//	w_k(i) = (D_k(i) − R0(i))/C_T (k ≥ 1), w_0(i) = −R0(i)/C_T,
//
// giving Var L(i) = wᵀ Cov w with Cov from Eq. 6 — the same worst-case
// treatment as the chessboard paper [7] this work compares against.
// DNL uses the 3σ of L(i) − L(i−1), which correctly cancels the shared
// variation of adjacent codes.
//
// Cost: the noise half of the sweep depends only on Cov and the unit
// counts (see noise), and the systematic half is O(N) per code, so
// the sweep is O(2^N·N) and allocates nothing per code.
func Nonlinearity(a *variation.Analysis, par Parasitics, vref float64) (*Result, error) {
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	return sweepCodes(a, newNoise(a), par), nil
}

// nominal returns the nominal capacitances from unit counts
// (chessboard doubling is already folded into Counts; ratios are
// unchanged) and their total C_T.
func nominal(a *variation.Analysis) (cNom []float64, cT float64) {
	cNom = make([]float64, a.Bits+1)
	for k := range cNom {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
	}
	return cNom, cT
}

// noise is the angle-independent half of the 3σ sweep: σ of L(i) per
// code and σ of L(i) − L(i−1) per lowest set bit of i. It depends only
// on Cov, Counts and CuFF, which every angle of a theta sweep shares.
//
// w takes one value on the switched-on capacitors and another on the
// rest, so wᵀ Cov w is three block sums of Cov, read from half-code
// tables (see nlTables) in O(N) per code; and L(i) − L(i−1) depends
// only on the lowest set bit of i, so the DNL sweep needs N distinct
// σ values (see dnlSigmas).
type noise struct {
	sigma  []float64 // index code
	sigmaD []float64 // index lowest set bit t = 1..N
}

func newNoise(a *variation.Analysis) *noise {
	n := a.Bits
	cNom, cT := nominal(a)
	tab := newNLTables(a.Cov, n)
	sigma := make([]float64, 1<<n)
	for i := 1; i < len(sigma); i++ {
		cOn := 0.0
		for m := uint(i); m != 0; m &= m - 1 {
			cOn += cNom[bits.TrailingZeros(m)+1]
		}
		r0 := cOn / cT
		// w = (1−r0)/C_T on the switched-on capacitors, −r0/C_T on the
		// rest (C_0 included).
		qOn, x, qOff := tab.forms(uint(i) << 1)
		on, off := 1-r0, -r0
		v := on*on*qOn + 2*on*off*x + off*off*qOff
		sigma[i] = math.Sqrt(math.Max(0, v)) / cT
	}
	return &noise{sigma: sigma, sigmaD: dnlSigmas(a, cT)}
}

// sameNoise reports whether b's noise inputs are a's.
func sameNoise(a, b *variation.Analysis) bool {
	return a.Cov == b.Cov && a.CuFF == b.CuFF && slices.Equal(a.Counts, b.Counts)
}

// sweepCodes adds the systematic transfer of a to the noise nz and
// returns the worst INL/DNL over all codes.
func sweepCodes(a *variation.Analysis, nz *noise, par Parasitics) *Result {
	n := a.Bits
	codes := 1 << n
	cNom, cT := nominal(a)
	sys := make([]float64, n+1)
	sysT := 0.0
	for k := range sys {
		sys[k] = a.DCSys(k)
		sysT += sys[k]
	}
	parsT := par.CTBOnfF + par.CTBOfffF + par.CTSfF
	lsb := 1.0 / float64(codes) // LSB in V/V_REF ratio units

	res := &Result{ThetaRad: a.ThetaRad}
	prevSys := 0.0
	for i := 0; i < codes; i++ {
		cOn, sysOn := 0.0, 0.0
		for m := uint(i); m != 0; m &= m - 1 {
			k := bits.TrailingZeros(m) + 1
			cOn += cNom[k]
			sysOn += sys[k]
		}
		rSys := (cOn + sysOn + par.CTBOnfF) / (cT + sysT + parsT)
		if i > 0 {
			inl := (math.Abs(rSys-IdealOut(n, i)) + 3*nz.sigma[i]) / lsb
			if inl > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = inl, i
			}
			t := bits.TrailingZeros(uint(i)) + 1
			dnl := (math.Abs(rSys-prevSys-lsb) + 3*nz.sigmaD[t]) / lsb
			if dnl > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = dnl, i
			}
		}
		prevSys = rSys
	}
	return res
}

// dnlSigmas returns σ of L(i) − L(i−1) per lowest set bit t of i
// (index t = 1..N). Code i−1 is i with capacitor t switched off and
// capacitors 1..t−1 switched on, so the weight difference is
// (δ_k − ΔR0)/C_T with δ_t = 1, δ_k = −1 below t and 0 elsewhere, and
// ΔR0 = (n_t − Σ_{k<t} n_k)/n_T taken exactly from the unit counts —
// not as the float difference of two rounded weight vectors — and the
// quadratic form is accumulated with compensated sums.
func dnlSigmas(a *variation.Analysis, cT float64) []float64 {
	n := a.Bits
	total := 0
	for _, c := range a.Counts {
		total += c
	}
	out := make([]float64, n+1)
	d := make([]float64, n+1)
	y := make([]float64, n+1)
	below := 0
	for t := 1; t <= n; t++ {
		dr := float64(a.Counts[t]-below) / float64(total)
		for k := range d {
			d[k] = -dr
		}
		for k := 1; k < t; k++ {
			d[k] = -1 - dr
		}
		d[t] = 1 - dr
		for j := 0; j <= n; j++ {
			y[j] = dot2(a.Cov.Data[j*(n+1):(j+1)*(n+1)], d)
		}
		out[t] = math.Sqrt(math.Max(0, dot2(d, y))) / cT
		below += a.Counts[t]
	}
	return out
}

// dot2 returns Σ x_i·y_i as if accumulated in twice the working
// precision and rounded once (Ogita, Rump & Oishi's Dot2: FMA-exact
// products, TwoSum accumulation). The DNL difference vector is nearly
// orthogonal to the covariance's common mode, so its quadratic form
// is a small difference of large terms; the compensated sums keep
// that cancellation exact.
func dot2(x, y []float64) float64 {
	s, c := 0.0, 0.0
	for i := range x {
		p := x[i] * y[i]
		pe := math.FMA(x[i], y[i], -p)
		t := s + p
		z := t - s
		c += (s - (t - z)) + (p - z) + pe
		s = t
	}
	return s + c
}

// nlTables splits the capacitors into a low half 0..lo−1 (C_0 always
// among them, always off) and a high half lo..N, and tabulates block
// sums of Cov over every subset of each half, keyed by the subset's
// bitmask (capacitor k is bit k of the full mask, bit k−lo of a high
// mask). Any on/off split of all capacitors then costs O(lo) to sum.
type nlTables struct {
	lo       int
	loFull   uint
	hiFull   uint
	qLo, xLo []float64 // Σ_{j,k∈m} C_jk; Σ_{j∈m, k∈low∖m} C_jk
	qHi, xHi []float64 // the same over high-half subsets
	vHi      []float64 // [m·lo + j] = Σ_{k∈m} C_jk for low j, high mask m
}

func newNLTables(cov *linalg.Dense, n int) *nlTables {
	lo := (n + 2) / 2
	hi := n + 1 - lo
	t := &nlTables{
		lo:     lo,
		loFull: 1<<lo - 1,
		hiFull: 1<<hi - 1,
	}
	t.qLo, t.xLo = halfSums(cov, 0, lo)
	t.qHi, t.xHi = halfSums(cov, lo, hi)
	t.vHi = make([]float64, (1<<hi)*lo)
	for m := 1; m < 1<<hi; m++ {
		b := bits.Len(uint(m)) - 1
		prev := t.vHi[(m^1<<b)*lo : (m^1<<b)*lo+lo]
		cur := t.vHi[m*lo : m*lo+lo]
		for j := range cur {
			cur[j] = prev[j] + cov.At(j, lo+b)
		}
	}
	return t
}

// halfSums tabulates, for every subset m of the capacitors
// first..first+size−1, the within-subset sum q[m] and the sum x[m]
// from m to the rest of the half.
func halfSums(cov *linalg.Dense, first, size int) (q, x []float64) {
	q = make([]float64, 1<<size)
	x = make([]float64, 1<<size)
	for m := 1; m < 1<<size; m++ {
		b := bits.Len(uint(m)) - 1
		p := m ^ 1<<b
		s := cov.At(first+b, first+b)
		for k := 0; k < b; k++ {
			if p>>k&1 != 0 {
				s += 2 * cov.At(first+b, first+k)
			}
		}
		q[m] = q[p] + s
		for j := 0; j < size; j++ {
			if m>>j&1 == 0 {
				continue
			}
			for k := 0; k < size; k++ {
				if m>>k&1 == 0 {
					x[m] += cov.At(first+j, first+k)
				}
			}
		}
	}
	return q, x
}

// forms returns, for the switched-on capacitor mask on (bit 0 clear),
// the block sums Q_on = Σ_{j,k on} C_jk, X = Σ_{j on, k off} C_jk and
// Q_off = Σ_{j,k off} C_jk.
func (t *nlTables) forms(on uint) (qOn, x, qOff float64) {
	lOn, hOn := on&t.loFull, on>>t.lo
	lOff, hOff := lOn^t.loFull, hOn^t.hiFull
	vOn := t.vHi[int(hOn)*t.lo : int(hOn)*t.lo+t.lo]
	vOff := t.vHi[int(hOff)*t.lo : int(hOff)*t.lo+t.lo]
	crossOn, crossOff, crossX := 0.0, 0.0, 0.0
	for j := range vOn {
		if lOn>>j&1 != 0 {
			crossOn += vOn[j]
			crossX += vOff[j]
		} else {
			crossOff += vOff[j]
			crossX += vOn[j]
		}
	}
	qOn = t.qLo[lOn] + t.qHi[hOn] + 2*crossOn
	qOff = t.qLo[lOff] + t.qHi[hOff] + 2*crossOff
	x = t.xLo[lOn] + t.xHi[hOn] + crossX
	return qOn, x, qOff
}

// WorstOverThetaContext runs Nonlinearity for every analysis in the
// sweep and returns the worst-case result (max |INL|, with its |DNL|
// companion taken from the same worst angle by |INL|+|DNL|). The
// per-angle code sweeps run on the context's worker budget and
// cancellation is checked before each angle. The worst-case reduction
// happens serially in angle order afterwards, so the selected angle —
// including the first-wins tie break — is identical at any worker
// count.
func WorstOverThetaContext(ctx context.Context, as []*variation.Analysis, parasitics Parasitics, vref float64) (*Result, error) {
	if len(as) == 0 {
		return nil, fmt.Errorf("dacmodel: empty theta sweep")
	}
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	// The angles of one theta sweep share the covariance and the unit
	// counts, so their noise half is computed once.
	shared := newNoise(as[0])
	rs := make([]*Result, len(as))
	if err := par.ForN(par.Workers(ctx), len(as), func(i int) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dacmodel: theta step %d: %w", i, cerr)
		}
		nz := shared
		if !sameNoise(as[0], as[i]) {
			nz = newNoise(as[i])
		}
		rs[i] = sweepCodes(as[i], nz, parasitics)
		return nil
	}); err != nil {
		return nil, err
	}
	worst := rs[0]
	for _, r := range rs[1:] {
		if r.MaxAbsINL+r.MaxAbsDNL > worst.MaxAbsINL+worst.MaxAbsDNL {
			worst = r
		}
	}
	return worst, nil
}

// MonteCarloNL evaluates INL/DNL for sampled capacitor shifts (from
// variation.MonteCarlo) and returns the per-sample results. Unlike the
// 3σ model it perturbs each sample deterministically (no 3σ margin).
// INL is raw (referenced to the ideal transfer), as in the paper.
func MonteCarloNL(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64) ([]Result, error) {
	return monteCarloNL(a, shifts, par, vref, false)
}

// MonteCarloNLEndpoint is MonteCarloNL with endpoint-corrected INL:
// each sample's transfer is referenced to the straight line through
// its own first and last codes, removing gain and offset errors the
// way production ADC/DAC linearity is measured. This exposes the
// placement-dependent mismatch that a shared C^TS gain error would
// otherwise mask.
func MonteCarloNLEndpoint(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64) ([]Result, error) {
	return monteCarloNL(a, shifts, par, vref, true)
}

func monteCarloNL(a *variation.Analysis, shifts [][]float64, par Parasitics, vref float64, endpoint bool) ([]Result, error) {
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	n := a.Bits
	codes := 1 << n
	cNom := make([]float64, n+1)
	cT := 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
	}
	vLSB := vref / float64(codes)
	results := make([]Result, len(shifts))
	out := make([]float64, codes)
	for s, dc := range shifts {
		if len(dc) != n+1 {
			return nil, fmt.Errorf("dacmodel: sample %d has %d shifts, want %d", s, len(dc), n+1)
		}
		dCT := par.CTBOnfF + par.CTBOfffF + par.CTSfF
		for k := 0; k <= n; k++ {
			dCT += dc[k]
		}
		for i := 0; i < codes; i++ {
			// Set bits in ascending k: the summation order every
			// sample's byte-stable result depends on.
			cOn, dOn := 0.0, par.CTBOnfF
			for m := uint(i); m != 0; m &= m - 1 {
				k := bits.TrailingZeros(m) + 1
				cOn += cNom[k]
				dOn += dc[k]
			}
			out[i] = vref * (cOn + dOn) / (cT + dCT)
		}
		// Reference: the ideal transfer (raw), or the straight line
		// through this sample's own endpoints (endpoint-corrected).
		ref := func(i int) float64 { return IdealOut(n, i) * vref }
		lsb := vLSB
		if endpoint {
			v0, vMax := out[0], out[codes-1]
			lsb = (vMax - v0) / float64(codes-1)
			if lsb <= 0 {
				return nil, fmt.Errorf("dacmodel: sample %d transfer not increasing end to end", s)
			}
			ref = func(i int) float64 { return v0 + float64(i)*lsb }
		}
		res := Result{ThetaRad: a.ThetaRad}
		for i := 1; i < codes; i++ {
			inl := (out[i] - ref(i)) / lsb
			if abs := math.Abs(inl); abs > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = abs, i
			}
			dnl := (out[i] - out[i-1] - lsb) / lsb
			if abs := math.Abs(dnl); abs > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = abs, i
			}
		}
		results[s] = res
	}
	return results, nil
}

// Quantile returns the q-quantile (0..1) of the max-|INL| values of
// Monte-Carlo results, a convenience for comparing with the 3σ model.
func Quantile(rs []Result, q float64, inl bool) float64 {
	if len(rs) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(rs))
	for i, r := range rs {
		if inl {
			vals[i] = r.MaxAbsINL
		} else {
			vals[i] = r.MaxAbsDNL
		}
	}
	// Insertion sort: result sets are small.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	idx := int(q * float64(len(vals)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
