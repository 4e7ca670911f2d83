// Package yield estimates parametric yield of a capacitor-array layout
// against INL/DNL specifications by correlated Monte-Carlo simulation —
// the analysis of the paper's reference [5] (Luo et al., "Impact of
// Capacitance Correlation on Yield Enhancement"), which motivates
// dispersion-aware common-centroid placement: placements whose unit
// cells are well dispersed decorrelate less and pass tighter specs.
package yield

import (
	"context"
	"fmt"
	"math"

	"ccdac/internal/ccmatrix"
	"ccdac/internal/dacmodel"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// Spec is a pass/fail nonlinearity specification in LSB.
type Spec struct {
	MaxAbsDNL float64
	MaxAbsINL float64
}

// Result is a Monte-Carlo yield estimate.
type Result struct {
	Samples int
	Passed  int
	// Yield is Passed/Samples.
	Yield float64
	// CILow and CIHigh bound the 95% Wilson confidence interval.
	CILow, CIHigh float64
	// WorstDNL and WorstINL are the worst sample values observed.
	WorstDNL, WorstINL float64
}

// EstimateContext draws correlated mismatch samples (random variation
// per Eqs. 4-6 plus the deterministic gradient at thetaRad) and counts
// how many meet the spec over a full-code INL/DNL sweep. The covariance
// build and the Monte-Carlo sample loop run on the context's worker
// budget and honor cancellation; the estimate for a fixed seed is
// identical at any worker count.
func EstimateContext(ctx context.Context, m *ccmatrix.Matrix, pos variation.Positioner, t *tech.Technology,
	thetaRad float64, spec Spec, par dacmodel.Parasitics, samples int, seed int64) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, fmt.Errorf("yield: need at least 1 sample")
	}
	a, err := variation.AnalyzeContext(ctx, m, pos, t, thetaRad)
	if err != nil {
		return nil, err
	}
	var ty Tally
	if err := BlockContext(ctx, m, pos, t, a, spec, par, 0, samples, seed, &ty); err != nil {
		return nil, err
	}
	return ty.Result(), nil
}

func (s Spec) validate() error {
	if s.MaxAbsDNL <= 0 || s.MaxAbsINL <= 0 {
		return fmt.Errorf("yield: spec bounds must be positive, got %+v", s)
	}
	return nil
}

// Tally accumulates pass/fail evidence across Monte-Carlo sample
// blocks. Passed and the worst values are order-independent; Hash is a
// rolling FNV-1a over each sample's per-sample nonlinearity bits and
// therefore requires blocks to be folded in ascending sample order —
// which the checkpointed job runner does by construction. Two runs
// over the same placement and seed produce equal tallies regardless of
// block partition or worker count, making Hash the byte-identity
// witness for resumed and coalesced runs.
type Tally struct {
	Samples  int     `json:"samples"`
	Passed   int     `json:"passed"`
	WorstDNL float64 `json:"worst_dnl"`
	WorstINL float64 `json:"worst_inl"`
	Hash     uint64  `json:"hash"`
}

// add folds one sample's endpoint-corrected nonlinearity into the
// tally.
func (ty *Tally) add(nl dacmodel.Result, spec Spec) {
	ty.Samples++
	if nl.MaxAbsDNL > ty.WorstDNL {
		ty.WorstDNL = nl.MaxAbsDNL
	}
	if nl.MaxAbsINL > ty.WorstINL {
		ty.WorstINL = nl.MaxAbsINL
	}
	if nl.MaxAbsDNL <= spec.MaxAbsDNL && nl.MaxAbsINL <= spec.MaxAbsINL {
		ty.Passed++
	}
	if ty.Hash == 0 {
		ty.Hash = fnvOffset
	}
	ty.Hash = fnvF64(ty.Hash, nl.MaxAbsDNL)
	ty.Hash = fnvF64(ty.Hash, nl.MaxAbsINL)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvF64 folds one float64's bit pattern into a rolling FNV-1a hash.
func fnvF64(h uint64, v float64) uint64 {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= bits & 0xff
		h *= fnvPrime
		bits >>= 8
	}
	return h
}

// Result converts the accumulated tally into a yield estimate.
func (ty Tally) Result() *Result {
	res := &Result{
		Samples: ty.Samples, Passed: ty.Passed,
		WorstDNL: ty.WorstDNL, WorstINL: ty.WorstINL,
	}
	if ty.Samples > 0 {
		res.Yield = float64(ty.Passed) / float64(ty.Samples)
	}
	res.CILow, res.CIHigh = wilson(ty.Passed, ty.Samples, 1.959964)
	return res
}

// BlockContext evaluates the contiguous Monte-Carlo sample block
// [from, to) of the estimate's per-sample streams against spec and
// folds it into tally. Partitioning [0, samples) into blocks and
// calling this per block — in order, possibly across process restarts
// — yields a tally identical to one uninterrupted EstimateContext run:
// sample s depends only on (seed, s), and the endpoint-corrected
// nonlinearity is evaluated per sample.
func BlockContext(ctx context.Context, m *ccmatrix.Matrix, pos variation.Positioner, t *tech.Technology,
	a *variation.Analysis, spec Spec, par dacmodel.Parasitics, from, to int, seed int64, tally *Tally) error {
	if err := spec.validate(); err != nil {
		return err
	}
	shifts, err := variation.MonteCarloRangeContext(ctx, m, pos, t, a, from, to, seed)
	if err != nil {
		return err
	}
	// Endpoint-corrected INL, as linearity is measured in production:
	// gain/offset errors (e.g. the shared C^TS) are removed, so the
	// spec tests the placement-dependent mismatch.
	nls, err := dacmodel.MonteCarloNLEndpoint(a, shifts, par, t.VRef)
	if err != nil {
		return err
	}
	for _, nl := range nls {
		tally.add(nl, spec)
	}
	return nil
}

// BlockSharedContext is BlockContext over a prepared variation.Shared:
// identical per-sample streams, endpoint correction and tally folds,
// but the Monte-Carlo sampler's fixed setup is paid at most once by
// the Shared and reused across blocks — the path the job tier's
// coalesced tails and checkpointed long runs take.
func BlockSharedContext(ctx context.Context, sh *variation.Shared, a *variation.Analysis,
	spec Spec, par dacmodel.Parasitics, from, to int, seed int64, tally *Tally) error {
	if err := spec.validate(); err != nil {
		return err
	}
	shifts, err := sh.MonteCarloRangeContext(ctx, a, from, to, seed)
	if err != nil {
		return err
	}
	nls, err := dacmodel.MonteCarloNLEndpoint(a, shifts, par, sh.Tech().VRef)
	if err != nil {
		return err
	}
	for _, nl := range nls {
		tally.add(nl, spec)
	}
	return nil
}

// wilson returns the Wilson score interval for a binomial proportion.
func wilson(passed, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(passed) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}

// SpecSweep estimates yield at several INL specs (DNL spec tied to the
// same value), returning one Result per spec point — a yield curve.
func SpecSweep(m *ccmatrix.Matrix, pos variation.Positioner, t *tech.Technology,
	thetaRad float64, specs []float64, par dacmodel.Parasitics, samples int, seed int64) ([]*Result, error) {
	return SpecSweepContext(context.Background(), m, pos, t, thetaRad, specs, par, samples, seed)
}

// SpecSweepContext is SpecSweep under a context, checking cancellation
// between spec points and within each estimate.
func SpecSweepContext(ctx context.Context, m *ccmatrix.Matrix, pos variation.Positioner, t *tech.Technology,
	thetaRad float64, specs []float64, par dacmodel.Parasitics, samples int, seed int64) ([]*Result, error) {
	out := make([]*Result, 0, len(specs))
	for i, s := range specs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("yield: spec point %d: %w", i, err)
		}
		r, err := EstimateContext(ctx, m, pos, t, thetaRad, Spec{MaxAbsDNL: s, MaxAbsINL: s}, par, samples, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
