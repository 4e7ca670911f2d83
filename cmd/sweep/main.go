// Command sweep runs the sensitivity and ablation studies behind the
// paper's design choices: technology-knob sweeps (via/wire resistance,
// correlation length, gradient, switch resistance, coupling), the
// via-resistance study motivating parallel routing, and the
// block-chessboard structure ablation.
//
// Usage:
//
//	sweep -study knob -knob via-r -bits 8 -style spiral -factors 0.5,1,2,4
//	sweep -study viar -bits 8
//	sweep -study bc   -bits 8
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ccdac/internal/core"
	"ccdac/internal/obs"
	"ccdac/internal/place"
	"ccdac/internal/store"
	"ccdac/internal/sweep"
)

func main() {
	study := flag.String("study", "knob", "study to run: knob, viar, bc")
	knob := flag.String("knob", "via-r", "technology knob for -study knob")
	bits := flag.Int("bits", 8, "DAC resolution")
	style := flag.String("style", "spiral", "placement style for -study knob")
	factorsFlag := flag.String("factors", "0.25,0.5,1,2,4,8", "scale factors")
	parallel := flag.Int("parallel", 2, "parallel wires")
	withNL := flag.Bool("nl", false, "include INL/DNL in knob sweeps (slower)")
	memoize := flag.Bool("memo", false, "memoize pipeline stages across sweep points (see docs/PERFORMANCE.md)")
	spillDir := flag.String("memo-spill-dir", "", "with -memo, spill evicted stage-cache entries to a durable store at this directory (restored on later misses)")
	traceOut := flag.String("trace", "", "record an observability trace and write its spans as JSONL to this file")
	otlpOut := flag.String("trace-otlp", "", "record an observability trace and write it as OTLP/JSON to this file (importable into Jaeger/Tempo)")
	metricsOut := flag.String("metrics", "", "record study metrics and write them in Prometheus text format to this file")
	flag.Parse()

	factors, err := parseFactors(*factorsFlag)
	if err != nil {
		fatal(err)
	}
	if *spillDir != "" {
		if st, err := store.Open(*spillDir, store.Options{}); err != nil {
			// Degrade, don't fail: the sweep is still correct without the
			// spill tier, just slower on re-misses.
			fmt.Fprintln(os.Stderr, "sweep: warning: memo spill disabled:", err)
		} else {
			core.EnableMemoSpill(store.Spiller{S: st})
		}
	}
	ctx := context.Background()
	var tr *obs.Trace
	if *traceOut != "" || *otlpOut != "" || *metricsOut != "" {
		tr = obs.New(obs.Options{PprofLabels: true})
		ctx = obs.WithTrace(ctx, tr)
		var root *obs.Span
		ctx, root = obs.StartSpan(ctx, "sweep."+*study)
		defer func() {
			root.End()
			tr.Finish()
			dumpTrace(tr, *traceOut, *otlpOut, *metricsOut)
		}()
	}
	switch *study {
	case "knob":
		st, err := place.ParseStyle(*style)
		if err != nil {
			fatal(err)
		}
		pts, err := sweep.SensitivityContext(ctx, core.Config{
			Bits: *bits, Style: st, MaxParallel: *parallel, ThetaSteps: 4, Memo: *memoize,
		}, sweep.Knob(*knob), factors, *withNL)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sensitivity of %d-bit %s to %s\n\n", *bits, *style, *knob)
		fmt.Printf("%8s %12s %10s", "factor", "f3dB MHz", "via cuts")
		if *withNL {
			fmt.Printf(" %10s %10s", "|DNL| LSB", "|INL| LSB")
		}
		fmt.Println()
		for _, p := range pts {
			fmt.Printf("%8.2f %12.1f %10d", p.Factor, p.F3dBHz/1e6, p.ViaCuts)
			if *withNL {
				fmt.Printf(" %10.4f %10.4f", p.DNL, p.INL)
			}
			fmt.Println()
		}
	case "viar":
		s, err := sweep.StudyViaRContext(ctx, *bits, factors)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("via-resistance study, %d-bit (S vs [7])\n\n", *bits)
		fmt.Printf("%8s %14s %14s %14s\n", "factor", "gap S(p2)/[7]", "gap S(p1)/[7]", "S(p2)/S(p1)")
		for i, f := range s.Factors {
			fmt.Printf("%8.2f %14.2f %14.2f %14.2f\n",
				f, s.GapParallel[i], s.GapSingle[i], s.ParallelGain[i])
		}
	case "bc":
		pts, err := sweep.BCAblationContext(ctx, *bits, *parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("block-chessboard structure ablation, %d-bit\n\n", *bits)
		fmt.Printf("%6s %6s %12s %10s %10s %10s %10s\n",
			"core", "block", "f3dB MHz", "|DNL| LSB", "|INL| LSB", "area um2", "via cuts")
		for _, p := range pts {
			fmt.Printf("%6d %6d %12.1f %10.4f %10.4f %10.0f %10d\n",
				p.CoreBits, p.BlockCells, p.F3dBHz/1e6, p.DNL, p.INL, p.AreaUm2, p.ViaCuts)
		}
	default:
		fatal(fmt.Errorf("unknown study %q", *study))
	}
}

func parseFactors(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad factor %q: %w", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no factors given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// dumpTrace writes the study's spans (JSONL and/or OTLP/JSON) and
// metrics (Prometheus text format) to the requested files and prints
// the stage-time tree to stderr, keeping stdout reserved for the study
// tables. Files are rendered in memory and written atomically, so a
// full disk or a crash mid-write surfaces as an error, never a
// truncated file that parses as a complete (wrong) study.
func dumpTrace(tr *obs.Trace, traceOut, otlpOut, metricsOut string) {
	spans := tr.Spans()
	if traceOut != "" {
		var buf bytes.Buffer
		err := obs.WriteJSONL(&buf, spans)
		if err == nil {
			err = store.AtomicWriteFile(traceOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if otlpOut != "" {
		var buf bytes.Buffer
		err := obs.WriteOTLP(&buf, "sweep", tr.ID(), spans)
		if err == nil {
			err = store.AtomicWriteFile(otlpOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if metricsOut != "" {
		// Fold the study trace into a process-level registry via the
		// same Merge path the serve daemon uses, so every exposition in
		// the repo is an aggregated registry view.
		proc := obs.NewRegistry()
		proc.Merge(tr.Registry().Snapshot())
		var buf bytes.Buffer
		err := obs.WritePrometheus(&buf, proc.Snapshot())
		if err == nil {
			err = store.AtomicWriteFile(metricsOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	_ = obs.WriteTree(os.Stderr, spans)
}
