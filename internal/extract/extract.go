// Package extract computes the electrical view of a routed
// common-centroid layout: the parasitic summary metrics of the paper's
// Table I (ΣC^TS, ΣC^wire, ΣC^BB, ΣN_V, ΣL, and per-critical-bit R_V /
// R_total) and the per-bit RC networks whose Elmore delays set the 3dB
// frequency (Sec. III-B).
//
// Modeling follows the paper's Sec. II-B: a wire segment of length l
// has resistance r·l and ground capacitance c·l; two parallel segments
// with overlap l_ov at spacing s couple through c_c(s)·l_ov. Vias have
// a fixed per-cut resistance, reduced p^2-fold by parallel via arrays.
package extract

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ccdac/internal/fault"
	"ccdac/internal/geom"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/rcnet"
	"ccdac/internal/route"
)

// couplingReach is the largest wire spacing (in units of minimum
// spacing) at which sidewall coupling is still extracted; beyond it the
// 1/s fringe term is negligible.
const couplingReach = 6.0

// BitNet is the extracted bottom-plate charging network of one capacitor.
type BitNet struct {
	Bit int
	// Net is the RC network; Root is the driver node (below the input
	// connection via); CellNodes are the bottom-plate nodes of the
	// bit's unit cells, carrying the C_u loads.
	Net       *rcnet.Net
	Root      int
	CellNodes []int
	// RWireOhm and RViaOhm total the wire and via resistances of the
	// net (the R_total and R_V of Table I are these sums for the
	// critical bit).
	RWireOhm, RViaOhm float64
	// CWirefF is the bit's routed bottom-plate wire capacitance.
	CWirefF float64
	// TauSec is the Elmore delay to the slowest unit cell.
	TauSec float64
}

// Summary carries the Table I metrics plus the per-bit networks.
type Summary struct {
	// CTSfF is the total top-plate-to-substrate routing capacitance.
	CTSfF float64
	// CWirefF is the total bottom-plate wiring capacitance.
	CWirefF float64
	// CBBfF is the total bottom-plate-to-bottom-plate (inter-bit)
	// coupling capacitance.
	CBBfF float64
	// ViaCuts is ΣN_V: total physical via cuts.
	ViaCuts int
	// WirelengthUm is ΣL: total routed wirelength.
	WirelengthUm float64
	// AreaUm2 is the routed array area.
	AreaUm2 float64
	// Bits holds the per-capacitor extracted networks, indexed by bit.
	Bits []BitNet
	// Warnings records solver degradations taken during extraction
	// (e.g. a CG→dense-Cholesky fallback in a bit's moment solve).
	Warnings []string
	// CGIterations and CGFallbacks total the sparse-solver effort and
	// CG→Cholesky degradations across every bit's delay solve — the
	// structured counterparts of the fallback prose in Warnings, so
	// tests and dashboards assert on numbers instead of strings.
	CGIterations, CGFallbacks int
}

// CriticalBit returns the capacitor with the largest Elmore delay; its
// time constant limits the DAC clock (Sec. III-B). A summary with no
// extracted bit networks has no critical bit and reports -1.
func (s *Summary) CriticalBit() int {
	if len(s.Bits) == 0 {
		return -1
	}
	best, bestTau := 0, -1.0
	for _, b := range s.Bits {
		if b.TauSec > bestTau {
			best, bestTau = b.Bit, b.TauSec
		}
	}
	return best
}

// Tau returns the limiting (maximum) Elmore time constant in seconds,
// or 0 when no bit networks were extracted.
func (s *Summary) Tau() float64 {
	crit := s.CriticalBit()
	if crit < 0 || crit >= len(s.Bits) {
		return 0
	}
	return s.Bits[crit].TauSec
}

// ExtractContext computes the full electrical view of a routed layout
// under a context carrying the observability trace: the coupling sweep
// and the per-bit network builds are recorded as nested spans, and
// solver effort lands in the trace's metrics.
func ExtractContext(ctx context.Context, l *route.Layout) (*Summary, error) {
	if err := fault.Check(fault.StageExtract); err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	s := &Summary{
		ViaCuts:      l.ViaCuts(),
		WirelengthUm: l.TotalWirelength(),
		AreaUm2:      l.Area(),
	}
	// Ground-capacitance sums and the coupling extraction.
	_, span := obs.StartSpan(ctx, "extract.couple")
	wireCoupling, pairs := couple(l, s)
	span.End()
	obs.Count(ctx, "ccdac_extract_coupling_pairs_total", int64(pairs))
	for _, w := range l.Wires {
		if w.Bit == route.TopPlateBit {
			s.CTSfF += l.Tech.TopPlateCfFPerUm * w.Seg.Len()
			continue
		}
		s.CWirefF += l.Tech.WireC(w.Layer, effLen(l, w), w.Par)
	}

	// Per-bit network builds are independent (each assembles and solves
	// its own rcnet from the shared read-only layout), so they fan out
	// across the context's worker budget; results land by bit index and
	// warnings/solver stats are folded in bit order afterwards, keeping
	// the summary identical at any worker count.
	_, span = obs.StartSpan(ctx, "extract.bitnets")
	s.Bits = make([]BitNet, l.M.Bits+1)
	nets := make([]*BitNet, l.M.Bits+1)
	if err := par.ForN(par.Workers(ctx), l.M.Bits+1, func(bit int) error {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("extract: bit %d: %w", bit, cerr)
		}
		bn, berr := buildBitNet(l, bit, wireCoupling)
		if berr != nil {
			return fmt.Errorf("extract: bit %d: %w", bit, berr)
		}
		nets[bit] = bn
		return nil
	}); err != nil {
		span.Fail(err)
		span.End()
		return nil, err
	}
	nodes := 0
	maxResidual := 0.0
	for bit, bn := range nets {
		s.Bits[bit] = *bn
		nodes += bn.Net.NumNodes()
		st := bn.Net.Stats()
		s.CGIterations += st.CGIterations
		s.CGFallbacks += st.CGFallbacks
		for _, sv := range st.Solves {
			// Per-solve distributions, not just the run totals: a single
			// near-cap solve hiding inside a healthy average is exactly
			// what the numeric-health histograms exist to expose.
			obs.Observe(ctx, "ccdac_numeric_cg_solve_iterations", float64(sv.Iterations))
			obs.Observe(ctx, "ccdac_numeric_cg_residual", sv.Residual)
			if sv.Residual > maxResidual {
				maxResidual = sv.Residual
			}
		}
		for _, w := range bn.Net.Warnings() {
			s.Warnings = append(s.Warnings, fmt.Sprintf("extract: bit %d: %s", bit, w))
		}
	}
	span.End()
	obs.Count(ctx, "ccdac_extract_nodes_total", int64(nodes))
	obs.Count(ctx, "ccdac_linalg_cg_iterations_total", int64(s.CGIterations))
	obs.Count(ctx, "ccdac_rcnet_cg_fallback_total", int64(s.CGFallbacks))
	obs.SetGauge(ctx, "ccdac_numeric_cg_max_residual", maxResidual)
	return s, nil
}

// Coupling runs just the coupling sweep of a routed layout and returns
// the total inter-bit coupling ΣC^BB in fF and the number of coupled
// wire pairs — the benchmark and diagnostic surface of couple.
func Coupling(l *route.Layout) (cbbFF float64, pairs int) {
	var s Summary
	_, p := couple(l, &s)
	return s.CBBfF, p
}

// coupleEntry is one bottom-plate wire in the coupling interval index:
// its original wire slot and its perpendicular track coordinate (y for
// horizontal wires, x for vertical ones).
type coupleEntry struct {
	idx  int
	perp float64
}

// couple extracts pairwise sidewall coupling between bottom-plate wires
// of different capacitors (the C^BB of Table I), returning each wire's
// share of coupling capacitance (treated as grounded for delay) and
// the number of coupled wire pairs found.
//
// Only parallel same-layer wires within couplingReach spacings couple,
// so instead of the seed's O(W²) all-pairs scan the wires are bucketed
// per (layer, direction) and sorted by their perpendicular coordinate;
// each wire is then compared only against the neighbors inside its
// reach window — O(W log W + W·k) for k wires per window. The pair set
// is exactly the seed's (the window bound is the same separation
// cutoff), only the accumulation order differs.
func couple(l *route.Layout, s *Summary) ([]float64, int) {
	pairs := 0
	share := make([]float64, len(l.Wires))
	nLayers := len(l.Tech.Layers)
	// Bucket index: layer × direction. geom.Seg classifies zero-length
	// segments as horizontal, matching Separation's pairing rules.
	buckets := make([][]coupleEntry, 2*nLayers)
	for i, w := range l.Wires {
		if w.Bit == route.TopPlateBit || w.Layer < 0 || w.Layer >= nLayers {
			continue
		}
		perp := w.Seg.A.Y
		b := 2 * w.Layer
		if w.Seg.Dir() == geom.Vertical {
			perp = w.Seg.A.X
			b++
		}
		buckets[b] = append(buckets[b], coupleEntry{idx: i, perp: perp})
	}
	reach := couplingReach * l.Tech.SMinUm
	for _, es := range buckets {
		sort.Slice(es, func(a, b int) bool {
			if es[a].perp != es[b].perp {
				return es[a].perp < es[b].perp
			}
			return es[a].idx < es[b].idx
		})
		for i := 0; i < len(es); i++ {
			wi := l.Wires[es[i].idx]
			for j := i + 1; j < len(es) && es[j].perp-es[i].perp <= reach; j++ {
				sep := es[j].perp - es[i].perp
				if sep == 0 {
					// Same track: abutting, not sidewall-coupled.
					continue
				}
				wj := l.Wires[es[j].idx]
				if wj.Bit == wi.Bit {
					continue
				}
				ov := wi.Seg.OverlapLen(wj.Seg)
				if ov <= 0 {
					continue
				}
				c := l.Tech.CouplingfFPerUm(sep) * ov
				s.CBBfF += c
				share[es[i].idx] += c / 2
				share[es[j].idx] += c / 2
				pairs++
			}
		}
	}
	return share, pairs
}

// effLen is the electrical length of a wire. Abutment connections
// between adjacent unit capacitors join two wide multi-finger,
// multi-layer MOM plates through a short jumper; their resistance and
// capacitance follow the jumper length (Unit.AbutLen), not the drawn
// center-to-center distance — this is why the paper's spiral placement
// has near-zero intra-group routing resistance (Sec. IV-B1/V).
func effLen(l *route.Layout, w route.Wire) float64 {
	if w.Kind == route.KindAbut {
		return math.Min(w.Seg.Len(), l.Tech.Unit.AbutLen)
	}
	return w.Seg.Len()
}

// nodeKey quantizes a point to 1 nm so float arithmetic cannot split
// electrically-identical junctions into distinct nodes.
type nodeKey struct {
	layer int // -1 for cell plate nodes (all layers tied at the cell)
	x, y  int64
}

func quant(v float64) int64 { return int64(math.Round(v * 1000)) }

// buildBitNet assembles the RC charging network of one capacitor from
// the routed wires and vias and runs the Elmore analysis.
func buildBitNet(l *route.Layout, bit int, wireCoupling []float64) (*BitNet, error) {
	bn := &BitNet{Bit: bit}
	net := rcnet.New()
	bn.Net = net
	nodes := map[nodeKey]int{}

	// Bottom plates are reachable on every layer at the cell, so any
	// wire endpoint landing on a cell center of this bit merges into
	// the cell's single plate node.
	cellAt := map[[2]int64]int{}
	for _, c := range l.M.CellsOf(bit) {
		pt := l.CellCenter(c)
		id := net.AddNode(fmt.Sprintf("cell:%d,%d", c.Row, c.Col))
		net.AddC(id, l.Tech.Unit.CfF)
		cellAt[[2]int64{quant(pt.X), quant(pt.Y)}] = id
		bn.CellNodes = append(bn.CellNodes, id)
	}
	nodeOf := func(p geom.Pt, layer int) int {
		if id, ok := cellAt[[2]int64{quant(p.X), quant(p.Y)}]; ok {
			return id
		}
		k := nodeKey{layer: layer, x: quant(p.X), y: quant(p.Y)}
		if id, ok := nodes[k]; ok {
			return id
		}
		id := net.AddNode(fmt.Sprintf("L%d:%.3f,%.3f", layer, p.X, p.Y))
		nodes[k] = id
		return id
	}

	for i, w := range l.Wires {
		if w.Bit != bit {
			continue
		}
		a := nodeOf(w.Seg.A, w.Layer)
		b := nodeOf(w.Seg.B, w.Layer)
		r := l.Tech.WireR(w.Layer, effLen(l, w), w.Par)
		c := l.Tech.WireC(w.Layer, effLen(l, w), w.Par) + wireCoupling[i]
		net.AddR(a, b, r)
		net.AddC(a, c/2)
		net.AddC(b, c/2)
		bn.RWireOhm += r
		bn.CWirefF += c
	}
	// The driver (switch) sits behind the input connection; its
	// on-resistance does not scale with parallel routing, bounding the
	// Fig. 6(a) gains.
	root := net.AddNode("source")
	driver := net.AddNode("driver")
	net.AddR(root, driver, l.Tech.SwitchROhm)
	bn.Root = root
	for _, v := range l.Vias {
		if v.Bit != bit {
			continue
		}
		r := l.Tech.ViaR(v.Par)
		bn.RViaOhm += r
		if v.Input {
			net.AddR(driver, nodeOf(v.At, v.LayerA), r)
			continue
		}
		net.AddR(nodeOf(v.At, v.LayerA), nodeOf(v.At, v.LayerB), r)
	}
	delays, err := bn.Net.Delay(root)
	if err != nil {
		return nil, err
	}
	bn.TauSec = rcnet.MaxDelay(delays, bn.CellNodes)
	return bn, nil
}

// F3dB converts the limiting time constant of an N-bit DAC into the
// paper's 3dB switching frequency (Eq. 16):
// f_3dB = 1 / (2 (N+2) ln 2 · tau).
func F3dB(bits int, tauSec float64) float64 {
	if tauSec <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * float64(bits+2) * math.Ln2 * tauSec)
}

// SettlingTime returns t_settle = ln(2^(N+2))·tau (Eq. 15), the time to
// charge within 1/4 LSB of the final value.
func SettlingTime(bits int, tauSec float64) float64 {
	return float64(bits+2) * math.Ln2 * tauSec
}
