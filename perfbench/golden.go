package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"ccdac"
	"ccdac/internal/jobs"
)

// fftTol is the documented agreement tolerance of the structured (FFT)
// covariance engine (docs/PERFORMANCE.md, "Agreement tolerance"): the
// bound floating-point outputs of a golden design must meet.
const fftTol = 1e-10

// gen12Golden is one style's recorded gen-12 output. Counts and
// geometry must match exactly; electrical and analysis outputs within
// fftTol.
type gen12Golden struct {
	Metrics  ccdac.Metrics `json:"metrics"`
	Warnings []string      `json:"warnings"`
}

func (g gen12Golden) matches(m ccdac.Metrics, warnings []string) bool {
	want := g.Metrics
	if m.ViaCuts != want.ViaCuts || m.CriticalBit != want.CriticalBit ||
		m.AreaUm2 != want.AreaUm2 || m.WirelengthUm != want.WirelengthUm ||
		!reflect.DeepEqual(m.ParallelWires, want.ParallelWires) ||
		len(warnings) != len(g.Warnings) {
		return false
	}
	for _, pair := range [][2]float64{
		{m.F3dBHz, want.F3dBHz}, {m.TauSec, want.TauSec},
		{m.MaxAbsDNL, want.MaxAbsDNL}, {m.MaxAbsINL, want.MaxAbsINL},
		{m.CTSfF, want.CTSfF}, {m.CWirefF, want.CWirefF}, {m.CBBfF, want.CBBfF},
		{m.RVkOhm, want.RVkOhm}, {m.RTotalkOhm, want.RTotalkOhm},
	} {
		if !relClose(pair[0], pair[1], fftTol) {
			return false
		}
	}
	return true
}

// yieldGolden is one (prefix, seed) yield job's recorded output.
type yieldGolden struct {
	Yield      float64 `json:"yield"`
	SampleHash string  `json:"sample_hash"`
}

func goldenPath(root, name string) string { return filepath.Join(root, "perfbench", "golden", name) }

func loadGen12Golden(root string) (map[string]gen12Golden, error) {
	var g map[string]gen12Golden
	return g, loadJSON(goldenPath(root, "gen12.json"), &g)
}

// loadYieldGolden returns goldens keyed by yieldGoldenKey.
func loadYieldGolden(root string) (map[string]yieldGolden, error) {
	var g map[string]yieldGolden
	return g, loadJSON(goldenPath(root, "yield.json"), &g)
}

func yieldGoldenKey(prefix int, seed int64) string { return fmt.Sprintf("%d/%d", prefix, seed) }

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordGolden re-records both golden files at the current source: the
// three gen-12 designs, and every (prefix, seed) of the yield-jobs
// catalog from uncoalesced (solo) job runs.
func recordGolden(ctx context.Context, root string) error {
	gen := map[string]gen12Golden{}
	for _, st := range gen12Styles {
		res, err := ccdac.GenerateContext(ctx, gen12Config(st, 0))
		if err != nil {
			return err
		}
		res.Metrics.PlaceSeconds, res.Metrics.RouteSeconds = 0, 0
		gen[string(st)] = gen12Golden{Metrics: res.Metrics, Warnings: append([]string{}, res.Warnings...)}
	}
	if err := writeJSON(goldenPath(root, "gen12.json"), gen); err != nil {
		return err
	}

	m := jobs.New(jobs.Options{MaxBatch: 1, Workers: 2, ComputeWorkers: 1})
	defer m.Close()
	type pending struct {
		key string
		id  string
	}
	var all []pending
	for i, pre := range yieldCatalog {
		for _, seed := range yieldSeeds(i) {
			j, err := m.Submit(pre.spec(seed))
			if err != nil {
				return err
			}
			all = append(all, pending{yieldGoldenKey(i, seed), j.ID})
		}
		// Drain per prefix so the bounded queue never overflows.
		for _, pj := range all[len(all)-len(yieldSeeds(i)):] {
			if _, err := m.Wait(ctx, pj.id); err != nil {
				return err
			}
		}
	}
	yg := map[string]yieldGolden{}
	for _, pj := range all {
		j, _ := m.Get(pj.id)
		if j.State != jobs.StateDone || j.Coalesced != 1 {
			return fmt.Errorf("golden job %s: state %s, group of %d", pj.key, j.State, j.Coalesced)
		}
		var yr jobs.YieldResult
		if err := json.Unmarshal(j.Result, &yr); err != nil {
			return err
		}
		yg[pj.key] = yieldGolden{Yield: yr.Yield, SampleHash: yr.SampleHash}
	}
	fmt.Fprintf(os.Stderr, "recorded %d gen-12 and %d yield goldens\n", len(gen), len(yg))
	return writeJSON(goldenPath(root, "yield.json"), yg)
}
