package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ccdac"
	"ccdac/internal/core"
	"ccdac/internal/dacmodel"
	"ccdac/internal/extract"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/route"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
)

// gen12Styles are the three constructive styles gen-12 cycles through.
var gen12Styles = []ccdac.Style{ccdac.Spiral, ccdac.Chessboard, ccdac.BlockChessboard}

// gen12Config is the one configuration per style gen-12 generates:
// 12 bits, two parallel wires, memo off, FFT auto.
func gen12Config(st ccdac.Style, workers int) ccdac.Config {
	return ccdac.Config{Bits: 12, Style: st, MaxParallel: 2, Workers: workers, FFT: "auto"}
}

// gen12Setup is the number of set-up rounds (one design per style each).
const gen12Setup = 3

// gen12Stages are the single-pass stage timings of one traced design.
type gen12Stages struct {
	place, route, extract, sweep, nl float64 // ms
	cgIter, cgFallback               int
	other                            float64 // e2e minus the stage sum, ms
}

// runGen12 is a closed loop with one caller of ccdac.GenerateContext,
// round-robin over the three styles in a seed-chosen order. Only whole
// rounds are timed, so every style contributes equally.
func runGen12(ctx context.Context, p params) (*outcome, error) {
	golden, err := loadGen12Golden(p.root)
	if err != nil {
		return nil, err
	}
	styles := append([]ccdac.Style(nil), gen12Styles...)
	rand.New(rand.NewSource(p.seed)).Shuffle(len(styles), func(i, j int) { styles[i], styles[j] = styles[j], styles[i] })

	out := &outcome{tailPct: 0.90, layers: map[string]metric{}, notes: map[string]any{"style_order": styles}}
	roundStart := procStart
	for r := 0; r < gen12Setup; r++ {
		for _, st := range styles {
			if _, err := ccdac.GenerateContext(ctx, gen12Config(st, p.workers)); err != nil {
				return nil, fmt.Errorf("gen-12 set-up %s: %w", st, err)
			}
		}
		now := time.Now()
		out.setupRounds = append(out.setupRounds, now.Sub(roundStart).Seconds())
		roundStart = now
	}

	var wall [2][]float64 // round wall times, untraced and traced
	stages := map[ccdac.Style][]gen12Stages{}
	rt0 := readRuntime()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < time.Duration(p.seconds)*time.Second; round++ {
		tracedRound := p.trace && round%2 == 1
		roundT0 := time.Now()
		for _, st := range styles {
			t0 := time.Now()
			res, err := ccdac.GenerateContext(ctx, gen12Config(st, p.workers))
			ms := msSince(t0)
			// Check at once and drop the design, so the benchmark holds
			// no results that would inflate the process's peak RSS.
			out.ops = append(out.ops, op{ms: ms, ok: err == nil && golden[string(st)].matches(res.Metrics, res.Warnings)})
			if !tracedRound || err != nil {
				continue
			}
			sg, err := replayGen12(ctx, st, p.workers, res)
			if err != nil {
				return nil, err
			}
			sg.other = ms - (sg.place + sg.route + sg.extract + sg.sweep + sg.nl)
			stages[st] = append(stages[st], sg)
		}
		if p.trace {
			// A traced round's wall time includes its replays.
			half := 0
			if tracedRound {
				half = 1
			}
			wall[half] = append(wall[half], msSince(roundT0))
		}
	}
	out.elapsed = time.Since(start)
	rt1 := readRuntime()

	if p.trace {
		gen12Layers(out.layers, styles, stages)
		runtimeLayers(out.layers, rt0, rt1, len(out.ops))
		out.layers["trace.overhead_ratio"] = metric{overheadRatio(wall[1], wall[0]), "ratio"}
		if err := fillAbsentLayers(p.root, out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayGen12 re-runs one design's pipeline as a single pass at its
// final parallel-wire vector, timing each layer's public entry point:
// core.Place, route.RouteContext, extract.ExtractContext,
// variation.SweepThetaContext and dacmodel.WorstOverThetaContext. The
// replayed nonlinearity must equal the design's, so the replay is known
// to have done the same work.
func replayGen12(ctx context.Context, st ccdac.Style, workers int, res *ccdac.Result) (gen12Stages, error) {
	var sg gen12Stages
	ctx = par.WithWorkers(ctx, workers)
	t := tech.FinFET12()
	cfg := core.Config{Bits: 12, Style: placeStyle(st), MaxParallel: 2, Workers: workers}

	t0 := time.Now()
	m, err := core.Place(cfg)
	sg.place = msSince(t0)
	if err != nil {
		return sg, err
	}
	t0 = time.Now()
	l, err := route.RouteContext(ctx, m, t, res.Metrics.ParallelWires)
	sg.route = msSince(t0)
	if err != nil {
		return sg, err
	}
	t0 = time.Now()
	sum, err := extract.ExtractContext(ctx, l)
	sg.extract = msSince(t0)
	if err != nil {
		return sg, err
	}
	sg.cgIter, sg.cgFallback = sum.CGIterations, sum.CGFallbacks
	t0 = time.Now()
	sweep, err := variation.SweepThetaContext(ctx, m, l.CellCenter, t, 8)
	sg.sweep = msSince(t0)
	if err != nil {
		return sg, err
	}
	t0 = time.Now()
	nl, err := dacmodel.WorstOverThetaContext(ctx, sweep, dacmodel.Parasitics{CTSfF: sum.CTSfF}, t.VRef)
	sg.nl = msSince(t0)
	if err != nil {
		return sg, err
	}
	if nl.MaxAbsINL != res.Metrics.MaxAbsINL || nl.MaxAbsDNL != res.Metrics.MaxAbsDNL {
		return sg, fmt.Errorf("gen-12 replay of %s: INL/DNL %g/%g, design had %g/%g",
			st, nl.MaxAbsINL, nl.MaxAbsDNL, res.Metrics.MaxAbsINL, res.Metrics.MaxAbsDNL)
	}
	return sg, nil
}

func placeStyle(st ccdac.Style) place.Style {
	switch st {
	case ccdac.Chessboard:
		return place.Chessboard
	case ccdac.BlockChessboard:
		return place.BlockChessboard
	}
	return place.Spiral
}

// gen12Layers reports each stage's median, overall and per style.
func gen12Layers(into map[string]metric, styles []ccdac.Style, stages map[ccdac.Style][]gen12Stages) {
	fields := []struct {
		name, unit string
		get        func(gen12Stages) float64
	}{
		{"place.ms", "ms", func(s gen12Stages) float64 { return s.place }},
		{"route.ms", "ms", func(s gen12Stages) float64 { return s.route }},
		{"extract.ms", "ms", func(s gen12Stages) float64 { return s.extract }},
		{"extract.cg_iterations", "count", func(s gen12Stages) float64 { return float64(s.cgIter) }},
		{"extract.cg_fallbacks", "count", func(s gen12Stages) float64 { return float64(s.cgFallback) }},
		{"variation.sweep_ms", "ms", func(s gen12Stages) float64 { return s.sweep }},
		{"dacmodel.nl_ms", "ms", func(s gen12Stages) float64 { return s.nl }},
		{"core.other_ms", "ms", func(s gen12Stages) float64 { return s.other }},
	}
	for _, f := range fields {
		var all []float64
		for _, st := range styles {
			var v []float64
			for _, s := range stages[st] {
				v = append(v, f.get(s))
			}
			all = append(all, v...)
			into[f.name+"."+string(st)] = metric{median(v), f.unit}
		}
		into[f.name] = metric{median(all), f.unit}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
