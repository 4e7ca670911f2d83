// Package dacmodel evaluates the circuit-level metrics of Sec. III:
// the charge-scaling DAC transfer function under capacitor
// nonidealities (Eq. 9), the 3σ mismatch-induced INL/DNL (Eqs. 7, 8,
// 10-14), and a Monte-Carlo variant used to cross-check the 3σ model.
package dacmodel

import (
	"context"
	"fmt"
	"math"

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

// bitsOf expands code i into the switch states D_1..D_N.
func bitsOf(bits, code int) []bool {
	d := make([]bool, bits+1)
	for k := 1; k <= bits; k++ {
		d[k] = code&(1<<(k-1)) != 0
	}
	return d
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
func Nonlinearity(a *variation.Analysis, par Parasitics, vref float64) (*Result, error) {
	if vref <= 0 {
		return nil, fmt.Errorf("dacmodel: vref must be positive, got %g", vref)
	}
	n := a.Bits
	codes := 1 << n

	// Nominal capacitances from unit counts (chessboard doubling is
	// already folded into Counts; ratios are unchanged).
	cNom := make([]float64, n+1)
	cT := 0.0
	for k := 0; k <= n; k++ {
		cNom[k] = float64(a.Counts[k]) * a.CuFF
		cT += cNom[k]
	}
	sysT := 0.0
	for k := 0; k <= n; k++ {
		sysT += a.DCSys(k)
	}
	parsT := par.CTBOnfF + par.CTBOfffF + par.CTSfF

	lsb := 1.0 / float64(codes) // LSB in V/V_REF ratio units
	quadForm := func(w []float64) float64 {
		v := 0.0
		for j := 0; j <= n; j++ {
			if w[j] == 0 {
				continue
			}
			for k := 0; k <= n; k++ {
				v += w[j] * w[k] * a.Cov.At(j, k)
			}
		}
		return math.Max(0, v)
	}

	res := &Result{ThetaRad: a.ThetaRad}
	prevSys := 0.0
	prevW := make([]float64, n+1)
	diff := make([]float64, n+1)
	for i := 0; i < codes; i++ {
		d := bitsOf(n, i)
		cOn, sysOn := 0.0, 0.0
		for k := 1; k <= n; k++ {
			if d[k] {
				cOn += cNom[k]
				sysOn += a.DCSys(k)
			}
		}
		r0 := cOn / cT
		rSys := (cOn + sysOn + par.CTBOnfF) / (cT + sysT + parsT)

		w := make([]float64, n+1)
		w[0] = -r0 / cT
		for k := 1; k <= n; k++ {
			dk := 0.0
			if d[k] {
				dk = 1
			}
			w[k] = (dk - r0) / cT
		}
		sigma := math.Sqrt(quadForm(w))

		if i > 0 {
			inl := (math.Abs(rSys-IdealOut(n, i)) + 3*sigma) / lsb
			if inl > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = inl, i
			}
			for k := 0; k <= n; k++ {
				diff[k] = w[k] - prevW[k]
			}
			sigmaD := math.Sqrt(quadForm(diff))
			dnl := (math.Abs(rSys-prevSys-lsb) + 3*sigmaD) / lsb
			if dnl > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = dnl, i
			}
		}
		prevSys = rSys
		copy(prevW, w)
	}
	return res, nil
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
	rs := make([]*Result, len(as))
	if err := par.ForN(par.Workers(ctx), len(as), func(i int) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("dacmodel: theta step %d: %w", i, cerr)
		}
		r, err := Nonlinearity(as[i], parasitics, vref)
		if err != nil {
			return err
		}
		rs[i] = r
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
			d := bitsOf(n, i)
			cOn, dOn := 0.0, par.CTBOnfF
			for k := 1; k <= n; k++ {
				if d[k] {
					cOn += cNom[k]
					dOn += dc[k]
				}
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
