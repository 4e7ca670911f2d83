package dacmodel

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/linalg"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

func analysisFor(t *testing.T, bits int, style place.Style, theta float64) *variation.Analysis {
	t.Helper()
	var m *ccmatrix.Matrix
	var err error
	switch style {
	case place.Spiral:
		m, err = place.NewSpiral(bits)
	case place.Chessboard:
		m, err = place.NewChessboard(bits)
	default:
		m, err = place.NewBlockChessboard(bits, place.BCParams{CoreBits: 4, BlockCells: 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	a, err := variation.Analyze(m, variation.GridPositioner(tch), tch, theta)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIdealOut(t *testing.T) {
	if got := IdealOut(6, 0); got != 0 {
		t.Errorf("IdealOut(6,0) = %g", got)
	}
	if got := IdealOut(6, 32); got != 0.5 {
		t.Errorf("IdealOut(6,32) = %g, want 0.5", got)
	}
	if got := IdealOut(6, 63); math.Abs(got-63.0/64) > 1e-15 {
		t.Errorf("IdealOut(6,63) = %g", got)
	}
}

func TestBitsOf(t *testing.T) {
	d := bitsOf(6, 0b101001)
	want := []bool{false, true, false, false, true, false, true}
	for k, w := range want {
		if d[k] != w {
			t.Errorf("bitsOf code 41 bit %d = %v, want %v", k, d[k], w)
		}
	}
}

func TestNonlinearitySmall(t *testing.T) {
	a := analysisFor(t, 6, place.Spiral, math.Pi/4)
	r, err := Nonlinearity(a, Parasitics{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxAbsDNL <= 0 || r.MaxAbsINL <= 0 {
		t.Errorf("degenerate result: %+v", r)
	}
	// The paper reports all methods below 0.5 LSB.
	if r.MaxAbsDNL > 0.5 || r.MaxAbsINL > 0.5 {
		t.Errorf("6-bit spiral INL/DNL too large: %+v", r)
	}
	if r.WorstINLCode <= 0 || r.WorstINLCode >= 64 {
		t.Errorf("worst INL code %d out of range", r.WorstINLCode)
	}
}

func TestNonlinearityRejectsBadVref(t *testing.T) {
	a := analysisFor(t, 6, place.Spiral, 0)
	if _, err := Nonlinearity(a, Parasitics{}, 0); err == nil {
		t.Error("zero vref must be rejected")
	}
}

func TestChessboardBeatsSpiralAtHighBits(t *testing.T) {
	// Table II shape (>= 8 bits): chessboard [7] has the best INL/DNL,
	// spiral the worst.
	sp := analysisFor(t, 8, place.Spiral, math.Pi/4)
	cb := analysisFor(t, 8, place.Chessboard, math.Pi/4)
	rs, err := Nonlinearity(sp, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Nonlinearity(cb, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.MaxAbsINL >= rs.MaxAbsINL {
		t.Errorf("chessboard INL %g not below spiral %g", rc.MaxAbsINL, rs.MaxAbsINL)
	}
}

func TestINLGrowsWithResolution(t *testing.T) {
	// In LSB units, mismatch-induced INL grows with N (LSB shrinks).
	lo := analysisFor(t, 6, place.Spiral, math.Pi/4)
	hi := analysisFor(t, 10, place.Spiral, math.Pi/4)
	rl, err := Nonlinearity(lo, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Nonlinearity(hi, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rh.MaxAbsINL <= rl.MaxAbsINL {
		t.Errorf("INL did not grow with resolution: 6-bit %g, 10-bit %g",
			rl.MaxAbsINL, rh.MaxAbsINL)
	}
}

func TestParasiticsWorsenINL(t *testing.T) {
	a := analysisFor(t, 8, place.Spiral, math.Pi/4)
	clean, err := Nonlinearity(a, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A large C^TS causes a visible gain error -> larger INL.
	dirty, err := Nonlinearity(a, Parasitics{CTSfF: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.MaxAbsINL <= clean.MaxAbsINL {
		t.Errorf("C_TS did not increase INL: clean %g, dirty %g",
			clean.MaxAbsINL, dirty.MaxAbsINL)
	}
}

func TestWorstOverTheta(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	as, err := variation.SweepThetaContext(context.Background(), m, variation.GridPositioner(tch), tch, 8)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := WorstOverThetaContext(context.Background(), as, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		r, err := Nonlinearity(a, Parasitics{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxAbsINL+r.MaxAbsDNL > worst.MaxAbsINL+worst.MaxAbsDNL+1e-12 {
			t.Errorf("sweep member exceeds reported worst")
		}
	}
	if _, err := WorstOverThetaContext(context.Background(), nil, Parasitics{}, 1); err == nil {
		t.Error("empty sweep must be rejected")
	}
}

func TestMonteCarloNLConsistentWith3Sigma(t *testing.T) {
	m, err := place.NewSpiral(6)
	if err != nil {
		t.Fatal(err)
	}
	tch := tech.FinFET12()
	a, err := variation.Analyze(m, variation.GridPositioner(tch), tch, math.Pi/4)
	if err != nil {
		t.Fatal(err)
	}
	shifts, err := variation.MonteCarlo(m, variation.GridPositioner(tch), tch, a, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarloNL(a, shifts, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Nonlinearity(a, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The 3σ model must upper-bound the MC median and be within reach
	// of the MC tail (same order of magnitude).
	med := Quantile(mc, 0.5, true)
	p99 := Quantile(mc, 0.99, true)
	if r3.MaxAbsINL < med {
		t.Errorf("3σ INL %g below MC median %g", r3.MaxAbsINL, med)
	}
	if r3.MaxAbsINL > 100*p99+1e-9 {
		t.Errorf("3σ INL %g wildly above MC p99 %g", r3.MaxAbsINL, p99)
	}
}

func TestMonteCarloNLRejectsBadShapes(t *testing.T) {
	a := analysisFor(t, 6, place.Spiral, 0)
	if _, err := MonteCarloNL(a, [][]float64{{1, 2}}, Parasitics{}, 1); err == nil {
		t.Error("wrong shift length must be rejected")
	}
	if _, err := MonteCarloNL(a, nil, Parasitics{}, 0); err == nil {
		t.Error("bad vref must be rejected")
	}
}

func TestQuantile(t *testing.T) {
	rs := []Result{{MaxAbsINL: 3}, {MaxAbsINL: 1}, {MaxAbsINL: 2}}
	if got := Quantile(rs, 0, true); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := Quantile(rs, 1, true); got != 3 {
		t.Errorf("q1 = %g, want 3", got)
	}
	if got := Quantile(rs, 0.5, true); got != 2 {
		t.Errorf("q0.5 = %g, want 2", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5, true)) {
		t.Error("empty quantile must be NaN")
	}
}

func TestMonotoneTransferNominal(t *testing.T) {
	// With tiny mismatch the perturbed transfer stays monotone
	// (DNL > -1): no missing codes for any placement style at 8 bits.
	for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
		a := analysisFor(t, 8, style, math.Pi/4)
		r, err := Nonlinearity(a, Parasitics{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxAbsDNL >= 1 {
			t.Errorf("%v: DNL %g implies a missing code", style, r.MaxAbsDNL)
		}
	}
}

func TestZeroMismatchZeroNL(t *testing.T) {
	// Property: with no mismatch samples (all-zero shifts) and no
	// parasitics, the Monte-Carlo evaluator reports zero INL/DNL for
	// any placement.
	for _, style := range []place.Style{place.Spiral, place.Chessboard} {
		a := analysisFor(t, 6, style, 0)
		shifts := [][]float64{make([]float64, 7)}
		rs, err := MonteCarloNL(a, shifts, Parasitics{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].MaxAbsINL > 1e-9 || rs[0].MaxAbsDNL > 1e-9 {
			t.Errorf("%v: zero mismatch gave INL %g DNL %g", style, rs[0].MaxAbsINL, rs[0].MaxAbsDNL)
		}
	}
}

func TestEndpointCorrectionRemovesGainError(t *testing.T) {
	// A pure C_TS gain error inflates raw INL but not endpoint INL.
	a := analysisFor(t, 8, place.Spiral, 0)
	shifts := [][]float64{make([]float64, 9)}
	par := Parasitics{CTSfF: 30}
	raw, err := MonteCarloNL(a, shifts, par, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := MonteCarloNLEndpoint(a, shifts, par, 1)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0].MaxAbsINL < 1 {
		t.Errorf("raw INL %g: 30 fF gain error should exceed 1 LSB", raw[0].MaxAbsINL)
	}
	if corrected[0].MaxAbsINL > 0.01 {
		t.Errorf("endpoint INL %g: gain error not removed", corrected[0].MaxAbsINL)
	}
}

// bitsOf expands code i into the switch states D_1..D_N.
func bitsOf(bits, code int) []bool {
	d := make([]bool, bits+1)
	for k := 1; k <= bits; k++ {
		d[k] = code&(1<<(k-1)) != 0
	}
	return d
}

// refWeights is the reference formulation's weight vector of code i:
// w_k = (D_k − R0)/C_T, w_0 = −R0/C_T, as float arithmetic.
func refWeights(a *variation.Analysis, i int) []float64 {
	n := a.Bits
	cT := 0.0
	for k := 0; k <= n; k++ {
		cT += float64(a.Counts[k]) * a.CuFF
	}
	d := bitsOf(n, i)
	cOn := 0.0
	for k := 1; k <= n; k++ {
		if d[k] {
			cOn += float64(a.Counts[k]) * a.CuFF
		}
	}
	r0 := cOn / cT
	w := make([]float64, n+1)
	w[0] = -r0 / cT
	for k := 1; k <= n; k++ {
		dk := 0.0
		if d[k] {
			dk = 1
		}
		w[k] = (dk - r0) / cT
	}
	return w
}

func refQuadForm(a *variation.Analysis, w []float64) float64 {
	v := 0.0
	for j := range w {
		if w[j] == 0 {
			continue
		}
		for k := range w {
			v += w[j] * w[k] * a.Cov.At(j, k)
		}
	}
	return math.Max(0, v)
}

// nonlinearityRef is the O(N²)-per-code formulation Nonlinearity
// replaced: the full weight vector and its quadratic form per code,
// and the DNL σ from the float difference of adjacent weight vectors.
func nonlinearityRef(a *variation.Analysis, par Parasitics) *Result {
	n := a.Bits
	codes := 1 << n
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
	lsb := 1.0 / float64(codes)
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
		rSys := (cOn + sysOn + par.CTBOnfF) / (cT + sysT + parsT)
		w := refWeights(a, i)
		sigma := math.Sqrt(refQuadForm(a, w))
		if i > 0 {
			inl := (math.Abs(rSys-IdealOut(n, i)) + 3*sigma) / lsb
			if inl > res.MaxAbsINL {
				res.MaxAbsINL, res.WorstINLCode = inl, i
			}
			for k := 0; k <= n; k++ {
				diff[k] = w[k] - prevW[k]
			}
			sigmaD := math.Sqrt(refQuadForm(a, diff))
			dnl := (math.Abs(rSys-prevSys-lsb) + 3*sigmaD) / lsb
			if dnl > res.MaxAbsDNL {
				res.MaxAbsDNL, res.WorstDNLCode = dnl, i
			}
		}
		prevSys = rSys
		copy(prevW, w)
	}
	return res
}

func checkAgainstRef(t *testing.T, name string, a *variation.Analysis, par Parasitics) (dINL, dDNL float64) {
	t.Helper()
	got, err := Nonlinearity(a, par, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := nonlinearityRef(a, par)
	dINL = math.Abs(got.MaxAbsINL - want.MaxAbsINL)
	dDNL = math.Abs(got.MaxAbsDNL - want.MaxAbsDNL)
	if dINL > 1e-10 || dDNL > 1e-10 {
		t.Errorf("%s: INL %.17g / DNL %.17g, reference %.17g / %.17g",
			name, got.MaxAbsINL, got.MaxAbsDNL, want.MaxAbsINL, want.MaxAbsDNL)
	}
	return dINL, dDNL
}

// TestNonlinearityMatchesReference: the half-table sweep reproduces
// the O(N²)-per-code formulation within 1e-10 LSB for every style at
// 6-12 bits, with and without a top-plate parasitic.
func TestNonlinearityMatchesReference(t *testing.T) {
	bitsList := []int{6, 8, 10, 12}
	if testing.Short() {
		bitsList = []int{6, 8}
	}
	worstI, worstD := 0.0, 0.0
	for _, n := range bitsList {
		for _, style := range []place.Style{place.Spiral, place.Chessboard, place.BlockChessboard} {
			a := analysisFor(t, n, style, 0.3)
			for _, par := range []Parasitics{{}, {CTSfF: 5, CTBOnfF: 0.2, CTBOfffF: 0.1}} {
				dI, dD := checkAgainstRef(t, fmt.Sprintf("%v/%d/%+v", style, n, par), a, par)
				worstI, worstD = math.Max(worstI, dI), math.Max(worstD, dD)
			}
		}
	}
	t.Logf("worst |ΔINL| = %.3g LSB, |ΔDNL| = %.3g LSB", worstI, worstD)
}

// TestNonlinearityRandomSPD fuzzes the block-sum identity on random
// symmetric positive-definite covariances with a strongly correlated
// common mode — the regime where wᵀ Cov w cancels hardest.
func TestNonlinearityRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		a := &variation.Analysis{
			Bits:     n,
			Counts:   make([]int, n+1),
			CuFF:     0.5 + rng.Float64(),
			ThetaRad: 0.1,
			CStar:    make([]float64, n+1),
			Cov:      linalg.NewDense(n + 1),
		}
		for k := 0; k <= n; k++ {
			a.Counts[k] = 1 << max(k-1, 0)
			if rng.Intn(3) == 0 {
				a.Counts[k] *= 2
			}
			a.CStar[k] = float64(a.Counts[k]) * a.CuFF * (1 + 1e-4*rng.NormFloat64())
		}
		b := make([]float64, (n+1)*(n+1))
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		common := 10 * rng.Float64()
		for j := 0; j <= n; j++ {
			for k := 0; k <= n; k++ {
				v := common * float64(a.Counts[j]*a.Counts[k])
				for l := 0; l <= n; l++ {
					v += b[j*(n+1)+l] * b[k*(n+1)+l]
				}
				a.Cov.Set(j, k, 1e-4*v)
			}
		}
		checkAgainstRef(t, fmt.Sprintf("trial %d (N=%d)", trial, n), a, Parasitics{CTSfF: rng.Float64()})
	}
}

// TestDNLSigmaExact: against a 300-bit evaluation of the exact DNL
// difference vector on the 12-bit block-chessboard covariance, the
// per-lowest-bit σ_D is no farther from the exact value than the
// reference formulation's float difference of adjacent weight vectors
// at any code with that lowest bit.
func TestDNLSigmaExact(t *testing.T) {
	if testing.Short() {
		t.Skip("12-bit exact check")
	}
	a := analysisFor(t, 12, place.BlockChessboard, 0)
	n := a.Bits
	const prec = 300
	bf := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	cT := 0.0
	total := 0
	for k := 0; k <= n; k++ {
		cT += float64(a.Counts[k]) * a.CuFF
		total += a.Counts[k]
	}
	bigCT := bf(0)
	for k := 0; k <= n; k++ {
		bigCT.Add(bigCT, new(big.Float).SetPrec(prec).Mul(bf(float64(a.Counts[k])), bf(a.CuFF)))
	}
	exact := make([]float64, n+1)
	below := 0
	for t := 1; t <= n; t++ {
		dr := new(big.Float).SetPrec(prec).Quo(bf(float64(a.Counts[t]-below)), bf(float64(total)))
		d := make([]*big.Float, n+1)
		for k := range d {
			delta := 0.0
			switch {
			case k == t:
				delta = 1
			case k >= 1 && k < t:
				delta = -1
			}
			d[k] = new(big.Float).SetPrec(prec).Sub(bf(delta), dr)
		}
		v := bf(0)
		for j := 0; j <= n; j++ {
			for k := 0; k <= n; k++ {
				p := new(big.Float).SetPrec(prec).Mul(d[j], d[k])
				v.Add(v, p.Mul(p, bf(a.Cov.At(j, k))))
			}
		}
		v.Sqrt(v)
		exact[t], _ = v.Quo(v, bigCT).Float64()
		below += a.Counts[t]
	}
	got := dnlSigmas(a, cT)
	oldWorst := make([]float64, n+1)
	prevW := refWeights(a, 0)
	diff := make([]float64, n+1)
	for i := 1; i < 1<<n; i++ {
		w := refWeights(a, i)
		for k := range diff {
			diff[k] = w[k] - prevW[k]
		}
		prevW = w
		tb := bits.TrailingZeros(uint(i)) + 1
		oldWorst[tb] = math.Max(oldWorst[tb], math.Abs(math.Sqrt(refQuadForm(a, diff))-exact[tb])/exact[tb])
	}
	worstNew, worstOld := 0.0, 0.0
	for tb := 1; tb <= n; tb++ {
		newErr := math.Abs(got[tb]-exact[tb]) / exact[tb]
		if newErr > oldWorst[tb] && newErr > 1e-15 {
			t.Errorf("t=%d: σ_D rel err %.3g, reference formulation %.3g", tb, newErr, oldWorst[tb])
		}
		worstNew, worstOld = math.Max(worstNew, newErr), math.Max(worstOld, oldWorst[tb])
	}
	t.Logf("σ_D rel err vs exact: per-bit %.3g, float difference %.3g", worstNew, worstOld)
}

// TestNonlinearityZeroAllocsPerCode pins the per-code cost: a full
// sweep allocates a fixed handful of tables, independent of 2^N.
func TestNonlinearityZeroAllocsPerCode(t *testing.T) {
	small := analysisFor(t, 6, place.Spiral, 0.2)
	large := analysisFor(t, 10, place.Spiral, 0.2)
	count := func(a *variation.Analysis) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Nonlinearity(a, Parasitics{}, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s, l := count(small), count(large); l > s+4 {
		t.Errorf("allocations grow with codes: 6-bit %v, 10-bit %v", s, l)
	}
}

// TestWorstOverThetaMixedNoise: analyses that do not share one
// covariance each get their own noise half, so the worst case equals
// the per-analysis sweeps.
func TestWorstOverThetaMixedNoise(t *testing.T) {
	as := []*variation.Analysis{
		analysisFor(t, 8, place.Chessboard, 0.2),
		analysisFor(t, 8, place.Spiral, 0.2),
	}
	worst, err := WorstOverThetaContext(context.Background(), as, Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Nonlinearity(as[1], Parasitics{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *worst != *want {
		t.Errorf("worst = %+v, want the spiral sweep %+v", *worst, *want)
	}
}

// transferRef is the Monte-Carlo transfer of one sample as the
// per-code bitsOf expansion computed it.
func transferRef(a *variation.Analysis, dc []float64, par Parasitics, vref float64) []float64 {
	n := a.Bits
	cNom, cT := nominal(a)
	dCT := par.CTBOnfF + par.CTBOfffF + par.CTSfF
	for k := 0; k <= n; k++ {
		dCT += dc[k]
	}
	out := make([]float64, 1<<n)
	for i := range out {
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
	return out
}

// TestMonteCarloNLByteStable: decoding the code bits in place keeps
// every sample's endpoint INL/DNL bit for bit what the per-code
// bitsOf expansion produced — the results yield sample hashes cover.
func TestMonteCarloNLByteStable(t *testing.T) {
	a := analysisFor(t, 8, place.BlockChessboard, 0.4)
	rng := rand.New(rand.NewSource(23))
	shifts := make([][]float64, 16)
	for s := range shifts {
		shifts[s] = make([]float64, a.Bits+1)
		for k := range shifts[s] {
			shifts[s][k] = a.DCSys(k) + 1e-3*rng.NormFloat64()
		}
	}
	par := Parasitics{CTSfF: 2}
	got, err := MonteCarloNLEndpoint(a, shifts, par, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	codes := 1 << a.Bits
	for s, dc := range shifts {
		out := transferRef(a, dc, par, 0.9)
		lsb := (out[codes-1] - out[0]) / float64(codes-1)
		want := Result{ThetaRad: a.ThetaRad}
		for i := 1; i < codes; i++ {
			if v := math.Abs((out[i] - (out[0] + float64(i)*lsb)) / lsb); v > want.MaxAbsINL {
				want.MaxAbsINL, want.WorstINLCode = v, i
			}
			if v := math.Abs((out[i] - out[i-1] - lsb) / lsb); v > want.MaxAbsDNL {
				want.MaxAbsDNL, want.WorstDNLCode = v, i
			}
		}
		if got[s] != want {
			t.Errorf("sample %d: %+v, per-code expansion %+v", s, got[s], want)
		}
	}
}
