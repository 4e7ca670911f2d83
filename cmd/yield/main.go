// Command yield runs a correlated Monte-Carlo parametric-yield
// analysis of a generated capacitor array against INL/DNL specs,
// printing a yield curve per placement style.
//
// Usage:
//
//	yield -bits 8 -samples 200 -specs 0.005,0.01,0.05,0.1
//	yield -bits 10 -samples 100000 -jobs http://localhost:8080
//
// With -jobs, the sweep is submitted to a running ccdacd's async job
// tier (one yield job per style × spec point) instead of computing
// locally. The daemon's compatibility micro-batching coalesces the
// jobs sharing each style's layout, running the expensive placement,
// routing, extraction and covariance work once per style; results are
// byte-identical to local runs at the same seed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ccdac/internal/core"
	"ccdac/internal/dacmodel"
	"ccdac/internal/jobs"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/yield"
)

func main() {
	bits := flag.Int("bits", 8, "DAC resolution (the spectral sampler keeps 12 bits interactive; see docs/PERFORMANCE.md)")
	samples := flag.Int("samples", 200, "Monte-Carlo samples per spec point")
	specsFlag := flag.String("specs", "0.001,0.002,0.004,0.01", "INL/DNL spec points in LSB")
	seed := flag.Int64("seed", 1, "random seed")
	memoize := flag.Bool("memo", false, "memoize pipeline stages across the per-style runs (see docs/PERFORMANCE.md)")
	jobsURL := flag.String("jobs", "", "submit the sweep to a running ccdacd's async job tier at this base URL (e.g. http://localhost:8080) instead of computing locally")
	flag.Parse()

	specs, err := parseSpecs(*specsFlag)
	if err != nil {
		fatal(err)
	}
	styles := []place.Style{place.Spiral, place.BlockChessboard, place.Chessboard}
	fmt.Printf("%d-bit DAC parametric yield (%d samples/point, spec on both |INL| and |DNL|)\n\n", *bits, *samples)
	fmt.Printf("%-18s", "spec (LSB):")
	for _, s := range specs {
		fmt.Printf(" %12.3f", s)
	}
	fmt.Println()
	if *jobsURL != "" {
		if err := runViaJobs(strings.TrimRight(*jobsURL, "/"), *bits, *samples, *seed, specs, styles); err != nil {
			fatal(err)
		}
	} else {
		t := tech.FinFET12()
		for _, s := range styles {
			res, err := core.Run(core.Config{Bits: *bits, Style: s, SkipNL: true, Memo: *memoize})
			if err != nil {
				fatal(err)
			}
			par := dacmodel.Parasitics{CTSfF: res.Electrical.CTSfF}
			curve, err := yield.SpecSweep(res.Placement, res.Layout.CellCenter, t,
				math.Pi/4, specs, par, *samples, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-18s", s)
			for _, r := range curve {
				fmt.Printf("  %5.1f%% ±%3.0f", 100*r.Yield, 100*(r.CIHigh-r.CILow)/2)
			}
			fmt.Println()
		}
	}
	fmt.Println("\nHigher dispersion (chessboard) passes tighter specs — the yield argument")
	fmt.Println("of Luo et al. [5] that motivates common-centroid dispersion.")
}

// runViaJobs submits one yield job per style × spec point, lets the
// daemon's micro-batching coalesce the per-style groups, then polls
// the jobs to completion and prints the same table the local path
// would.
func runViaJobs(base string, bits, samples int, seed int64, specs []float64, styles []place.Style) error {
	client := &http.Client{Timeout: 30 * time.Second}
	ids := make([][]string, len(styles))
	for si, st := range styles {
		ids[si] = make([]string, len(specs))
		for pi, sp := range specs {
			spec := jobs.Spec{
				Kind:    jobs.KindYield,
				Bits:    bits,
				Style:   st.String(),
				Samples: samples,
				Seed:    seed,
				SpecINL: sp,
			}
			id, err := submitJob(client, base, spec)
			if err != nil {
				return fmt.Errorf("submitting %s spec %g: %w", st, sp, err)
			}
			ids[si][pi] = id
		}
	}
	for si, st := range styles {
		fmt.Printf("%-18s", st)
		for pi := range specs {
			res, err := awaitJob(client, base, ids[si][pi])
			if err != nil {
				return fmt.Errorf("job %s (%s): %w", ids[si][pi], st, err)
			}
			fmt.Printf("  %5.1f%% ±%3.0f", 100*res.Yield, 100*(res.CIHigh-res.CILow)/2)
		}
		fmt.Println()
	}
	return nil
}

// submitJob POSTs one job spec, honoring Retry-After backoff when the
// daemon's bounded queue overflows.
func submitJob(client *http.Client, base string, spec jobs.Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			fmt.Fprintf(os.Stderr, "yield: job queue full, retrying in %s\n", wait)
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(data)))
		}
		var job jobs.Job
		if err := json.Unmarshal(data, &job); err != nil {
			return "", err
		}
		return job.ID, nil
	}
}

// awaitJob polls one job until it is terminal and returns its yield
// result.
func awaitJob(client *http.Client, base, id string) (*jobs.YieldResult, error) {
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
		}
		var job jobs.Job
		if err := json.Unmarshal(data, &job); err != nil {
			return nil, err
		}
		switch job.State {
		case jobs.StateDone:
			var res jobs.YieldResult
			if err := json.Unmarshal(job.Result, &res); err != nil {
				return nil, err
			}
			return &res, nil
		case jobs.StateFailed, jobs.StateCanceled:
			return nil, fmt.Errorf("job %s: %s", job.State, job.Error)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func parseSpecs(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad spec %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no specs given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yield:", err)
	os.Exit(1)
}
