package tech

import (
	"math"
	"testing"
)

// TestRhoMatchesPowReference checks the memoized exp-form evaluator
// against the paper's literal rho_u^(d/Lc) at grid-scale separations.
// The d² quantization (1e-6 um²) perturbs d by well under a nanometer
// at these distances, so the agreement bound is tight.
func TestRhoMatchesPowReference(t *testing.T) {
	tch := FinFET12()
	for _, d := range []float64{0, 0.064, 0.5, 1, 3.7, 12.5, 100, 1500} {
		got := tch.Rho(d)
		want := math.Pow(tch.Mis.RhoU, d/tch.Mis.LcUm)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Rho(%g) = %.15g, pow reference %.15g (|Δ|=%g)", d, got, want, math.Abs(got-want))
		}
	}
	if got := tch.Rho(0); got != 1 {
		t.Errorf("Rho(0) = %g, want exactly 1", got)
	}
}

// TestRhoTableSharedByParams: technologies with equal mismatch
// parameters — including by-value copies, as parameter sweeps make —
// share one memo table; changing (RhoU, LcUm) selects another.
func TestRhoTableSharedByParams(t *testing.T) {
	a, b := FinFET12(), FinFET12()
	if a.RhoTable() != b.RhoTable() {
		t.Error("equal-parameter technologies got distinct rho tables")
	}
	c := *a // the copy a sweep's ScaledTech makes
	if c.RhoTable() != a.RhoTable() {
		t.Error("by-value copy with unchanged parameters got a distinct table")
	}
	c.Mis.LcUm *= 2
	if c.RhoTable() == a.RhoTable() {
		t.Error("changed LcUm still mapped to the old table")
	}
	if got, want := c.Rho(100), math.Pow(c.Mis.RhoU, 100/c.Mis.LcUm); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled-Lc Rho(100) = %g, want %g", got, want)
	}
}

// TestRhoTableStats: a repeated distance is served from the memo.
func TestRhoTableStats(t *testing.T) {
	tch := FinFET12()
	tch.Mis.LcUm = 977.125 // unique parameters -> fresh table
	rt := tch.RhoTable()
	h0, m0 := rt.Stats()
	rt.Rho(1.25)
	rt.Rho(1.25)
	rt.Rho(1.25)
	h1, m1 := rt.Stats()
	if m1-m0 != 1 {
		t.Errorf("misses grew by %d, want 1 (first evaluation only)", m1-m0)
	}
	if h1-h0 != 2 {
		t.Errorf("hits grew by %d, want 2 (repeat evaluations)", h1-h0)
	}
}

// TestRhoLocalServesSharedValues: the goroutine-local view returns
// bitwise the values of the shared table and accounts its traffic.
func TestRhoLocalServesSharedValues(t *testing.T) {
	rt := FinFET12().RhoTable()
	local := rt.Local()
	ds := []float64{0.5, 0.5, 2.25, 0.5, 2.25}
	for _, d := range ds {
		if got, want := local.RhoSq(d*d), rt.Rho(d); got != want {
			t.Errorf("local RhoSq(%g²) = %.17g, shared %.17g", d, got, want)
		}
	}
	calls, fetches := local.Stats()
	if calls != int64(len(ds)) {
		t.Errorf("calls = %d, want %d", calls, len(ds))
	}
	if fetches != 2 {
		t.Errorf("fetches = %d, want 2 (two distinct distances)", fetches)
	}
}

// TestRhoSqPathologicalInputs: values outside the quantization range
// fall back to direct evaluation without panicking or poisoning the
// memo.
func TestRhoSqPathologicalInputs(t *testing.T) {
	rt := FinFET12().RhoTable()
	if got := rt.RhoSq(math.Inf(1)); got != 0 {
		t.Errorf("RhoSq(+Inf) = %g, want 0", got)
	}
	if got := rt.RhoSq(math.NaN()); !math.IsNaN(got) {
		t.Errorf("RhoSq(NaN) = %g, want NaN", got)
	}
	if got := rt.RhoSq(1e70); got != 0 {
		t.Errorf("RhoSq(1e70) = %g, want underflow to 0", got)
	}
	// And a sane value still works afterwards.
	if got, want := rt.Rho(1), math.Pow(0.9, 1.0/1000.0); math.Abs(got-want) > 1e-9 {
		t.Errorf("Rho(1) after pathological inputs = %g, want %g", got, want)
	}
}

// TestRhoSqKernelMatchesTable: the direct kernel serves bitwise what
// the memo table serves — quantized keys and the out-of-range direct
// formula alike — without touching the table's counters.
func TestRhoSqKernelMatchesTable(t *testing.T) {
	tch := FinFET12()
	tch.Mis.RhoU = 0.98765 // a table of its own: counters isolated
	rt := tch.RhoTable()
	k := tch.RhoSqKernel()
	d2s := []float64{0, 1e-7, 0.25, 1.2345678, 40.5, 1e5, 3e12, 1e70, math.Inf(1)}
	want := make([]float64, len(d2s))
	for i, d2 := range d2s {
		want[i] = rt.RhoSq(d2)
	}
	h0, m0 := rt.Stats()
	for i, d2 := range d2s {
		if got := k(d2); got != want[i] {
			t.Errorf("RhoSqKernel(%g) = %.17g, table %.17g", d2, got, want[i])
		}
	}
	if h1, m1 := rt.Stats(); h1 != h0 || m1 != m0 {
		t.Errorf("kernel moved table stats: hits %d→%d, misses %d→%d", h0, h1, m0, m1)
	}
	if got := k(math.NaN()); !math.IsNaN(got) {
		t.Errorf("RhoSqKernel(NaN) = %g, want NaN", got)
	}
}
