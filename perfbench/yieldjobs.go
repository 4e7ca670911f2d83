package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ccdac"
	"ccdac/internal/core"
	"ccdac/internal/dacmodel"
	"ccdac/internal/jobs"
	"ccdac/internal/memo"
	"ccdac/internal/par"
	"ccdac/internal/place"
	"ccdac/internal/tech"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

const (
	// burstSize is one burst of compatible jobs: the default JobMaxBatch.
	burstSize = 16
	// jobSamples is each job's Monte-Carlo sample count.
	jobSamples = 200
	// jobSpecINL is the yield spec (the paper's 0.5 LSB bound).
	jobSpecINL = 0.5
	// yieldSetup is the number of set-up rounds; each boots a fresh
	// daemon and runs one warm-up burst of warmJobs jobs.
	yieldSetup = 5
	warmJobs   = 4
	// yieldRoundSeconds sizes the timed phase: one round of ten bursts
	// (a pair for each of the five prefix shapes) per this many --seconds,
	// rounded, at least one. A round took about 12 s on 2 vCPUs at the
	// commit that added the benchmark. The work is fixed, not the time,
	// so the job records and store entries the daemon keeps do not grow
	// with a faster build.
	yieldRoundSeconds = 12
)

// yieldPrefix is the coalescing prefix of a yield job: the fields that
// decide place → route → extract → covariance.
type yieldPrefix struct {
	Style                string
	CoreBits, BlockCells int
	MaxParallel          int
	TechNode             string
}

func (p yieldPrefix) spec(seed int64) jobs.Spec {
	return jobs.Spec{
		Kind: jobs.KindYield, Bits: 10, Style: p.Style, CoreBits: p.CoreBits,
		BlockCells: p.BlockCells, MaxParallel: p.MaxParallel, TechNode: p.TechNode,
		Samples: jobSamples, Seed: seed, SpecINL: jobSpecINL,
	}
}

// yieldShapes are the five prefix shapes: style and block-chessboard
// structure.
var yieldShapes = []yieldPrefix{
	{Style: "spiral"}, {Style: "chessboard"},
	{Style: "block-chessboard", CoreBits: 4, BlockCells: 2},
	{Style: "block-chessboard", CoreBits: 2, BlockCells: 1},
	{Style: "block-chessboard", CoreBits: 6, BlockCells: 4},
}

// yieldCatalog lists the 10-bit prefixes bursts draw from, each at most
// once per run; yieldWarm are the set-up rounds' prefixes, outside it.
// A prefix's index fixes its seeds and golden records.
var yieldCatalog, yieldWarm = buildYieldCatalog()

func buildYieldCatalog() (catalog, warm []yieldPrefix) {
	for _, tn := range []string{"finfet12", "bulk65"} {
		for _, mp := range []int{0, 2, 3, 4, 5, 6, 7} {
			for _, s := range yieldShapes {
				s.MaxParallel, s.TechNode = mp, tn
				catalog = append(catalog, s)
			}
		}
	}
	for _, s := range yieldShapes[:3] {
		s.MaxParallel, s.TechNode = 8, "finfet12"
		warm = append(warm, s)
	}
	return catalog, warm
}

// yieldPairs groups catalog indices into pairs of comparable prefixes,
// per shape: the same shape and node, with wire counts 2/3, then 4/5,
// then 6/7, each on both nodes. A run's bursts go pair by pair, so a
// traced burst can be compared with an untraced one of nearly the same
// cost.
func yieldPairs() [][][2]int {
	index := map[yieldPrefix]int{}
	for i, pre := range yieldCatalog {
		index[pre] = i
	}
	byShape := make([][][2]int, len(yieldShapes))
	for s, shape := range yieldShapes {
		for _, mp := range []int{2, 4, 6} {
			for _, tn := range []string{"finfet12", "bulk65"} {
				a, b := shape, shape
				a.MaxParallel, a.TechNode = mp, tn
				b.MaxParallel, b.TechNode = mp+1, tn
				byShape[s] = append(byShape[s], [2]int{index[a], index[b]})
			}
		}
	}
	return byShape
}

// yieldSeeds are the per-job seeds of catalog prefix i.
func yieldSeeds(i int) []int64 {
	s := make([]int64, burstSize)
	for j := range s {
		s[j] = int64(i*100 + j + 1)
	}
	return s
}

// runYieldJobs is a closed loop of bursts: each burst submits 16
// compatible yield jobs (distinct seeds, a prefix this run has not
// used) over POST /v1/jobs, waits for all of them, and fetches each
// record over GET /v1/jobs/{id}. A job's latency is its record's
// finished − created, so the wait mechanism stays out of the number.
func runYieldJobs(ctx context.Context, p params) (*outcome, error) {
	golden, err := loadYieldGolden(p.root)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	// Round r takes pair r of every shape, in seeded order, so runs of
	// one length use the same prefixes; the seed orders them.
	byShape := yieldPairs()
	rounds := max(1, int(math.Round(float64(p.seconds)/yieldRoundSeconds)))
	if rounds > len(byShape[0]) {
		return nil, fmt.Errorf("yield-jobs: %d rounds need more prefixes than the catalog has (%d pairs per shape); use fewer --seconds",
			rounds, len(byShape[0]))
	}
	var order []int
	for r := 0; r < rounds; r++ {
		for _, shape := range rng.Perm(len(byShape)) {
			pair := byShape[shape][r]
			if rng.Intn(2) == 1 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			order = append(order, pair[0], pair[1])
		}
	}
	out := &outcome{tailPct: 0.95, layers: map[string]metric{}}

	var d *daemon
	roundStart := procStart
	for r := 0; r < yieldSetup; r++ {
		if d != nil {
			// Tearing down the previous round (draining its store's
			// write-behind fsyncs) is not set-up work.
			d.stop()
			roundStart = time.Now()
		}
		memo.PurgeAll()
		if d, err = startDaemon(p.root, "yield-jobs"); err != nil {
			return nil, err
		}
		recs, err := d.burst(yieldWarm[r%len(yieldWarm)], yieldSeeds(0)[:warmJobs])
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("yield-jobs set-up: %w", err)
		}
		for _, j := range recs {
			if j.State != jobs.StateDone {
				d.stop()
				return nil, fmt.Errorf("yield-jobs set-up job %s: %s %s", j.ID, j.State, j.Error)
			}
		}
		now := time.Now()
		out.setupRounds = append(out.setupRounds, now.Sub(roundStart).Seconds())
		roundStart = now
	}
	defer d.stop()

	out.ops = make([]op, 0, len(order)*burstSize)
	var (
		pairRatios               []float64 // traced over untraced burst wall time
		untracedMS               float64
		truncated                bool
		queueWait, run           []float64
		groups                   float64
		prefixMS, setupMS, ksamp []float64
		bursts                   int
		replayErr                error
	)
	// The daemon's default per-request budget, which its job tier uses
	// for tails: GOMAXPROCS / MaxInFlight with MaxInFlight = 2×GOMAXPROCS,
	// floored at 1.
	const computeWorkers = 1
	rt0 := readRuntime()
	start := time.Now()
	phaseCap := time.Duration(p.seconds) * time.Second * phaseCapFactor
	for b, idx := range order {
		if b > 0 && time.Since(start) > phaseCap {
			truncated = true
			break
		}
		burstStart := time.Now()
		seeds := yieldSeeds(idx)
		rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		recs, err := d.burst(yieldCatalog[idx], seeds)
		if err != nil {
			return nil, err
		}
		bursts++
		tracedBurst := p.trace && b%2 == 1
		for i, j := range recs {
			ms := float64(j.FinishedMS - j.CreatedMS)
			out.ops = append(out.ops, op{ms: ms, ok: jobMatches(j, golden[yieldGoldenKey(idx, seeds[i])])})
			if !tracedBurst {
				continue
			}
			queueWait = append(queueWait, float64(j.StartedMS-j.CreatedMS))
			run = append(run, float64(j.FinishedMS-j.StartedMS))
			groups += 1 / float64(max(j.Coalesced, 1))
		}
		if tracedBurst && replayErr == nil {
			var pm, sm, km float64
			pm, sm, km, replayErr = replayYieldPrefix(ctx, yieldCatalog[idx], seeds[0], computeWorkers,
				golden[yieldGoldenKey(idx, seeds[0])])
			prefixMS, setupMS, ksamp = append(prefixMS, pm), append(setupMS, sm), append(ksamp, km)
		}
		if p.trace {
			// A traced burst's wall time includes its replay; it is
			// compared with the untraced burst of its pair.
			if ms := msSince(burstStart); tracedBurst {
				pairRatios = append(pairRatios, ms/untracedMS)
			} else {
				untracedMS = ms
			}
		}
	}
	out.elapsed = time.Since(start)
	rt1 := readRuntime()
	out.notes = map[string]any{"bursts": bursts, "catalog": len(yieldCatalog), "truncated": truncated}
	if replayErr != nil {
		return nil, replayErr
	}
	if p.trace {
		n := float64(max(len(queueWait), 1))
		out.layers["jobs.queue_wait_ms"] = metric{median(queueWait), "ms"}
		out.layers["jobs.run_ms"] = metric{median(run), "ms"}
		out.layers["jobs.coalesced_ratio"] = metric{1 - groups/n, "ratio"}
		out.layers["jobs.groups_per_burst"] = metric{groups / float64(max(len(pairRatios), 1)), "count"}
		out.layers["core.prefix_ms"] = metric{median(prefixMS), "ms"}
		out.layers["variation.shared_setup_ms"] = metric{median(setupMS), "ms"}
		out.layers["yield.block_ms_per_ksample"] = metric{median(ksamp), "ms"}
		runtimeLayers(out.layers, rt0, rt1, len(out.ops))
		out.layers["trace.overhead_ratio"] = metric{median(pairRatios) - 1, "ratio"}
		if err := fillAbsentLayers(p.root, out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// burst submits one job per seed on prefix pre, waits for every job
// in-process, then fetches each final record over HTTP.
func (d *daemon) burst(pre yieldPrefix, seeds []int64) ([]jobs.Job, error) {
	var buf bytes.Buffer
	ids := make([]string, len(seeds))
	for i, seed := range seeds {
		body, err := json.Marshal(pre.spec(seed))
		if err != nil {
			return nil, err
		}
		code, err := d.post("/v1/jobs", body, &buf)
		if err != nil {
			return nil, err
		}
		if code != 202 {
			return nil, fmt.Errorf("POST /v1/jobs: status %d: %s", code, buf.String())
		}
		var j jobs.Job
		if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
			return nil, err
		}
		ids[i] = j.ID
	}
	recs := make([]jobs.Job, len(ids))
	for i, id := range ids {
		if _, err := d.srv.Jobs().Wait(context.Background(), id); err != nil {
			return nil, err
		}
		code, err := d.get("/v1/jobs/"+id, &buf)
		if err != nil {
			return nil, err
		}
		if code != 200 {
			return nil, fmt.Errorf("GET /v1/jobs/%s: status %d", id, code)
		}
		if err := json.Unmarshal(buf.Bytes(), &recs[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// jobMatches checks a finished job against its solo-run golden.
func jobMatches(j jobs.Job, want yieldGolden) bool {
	if j.State != jobs.StateDone || want.SampleHash == "" {
		return false
	}
	var yr jobs.YieldResult
	if err := json.Unmarshal(j.Result, &yr); err != nil {
		return false
	}
	return yr.Samples == jobSamples && yr.Yield == want.Yield && yr.SampleHash == want.SampleHash
}

// replayYieldPrefix re-runs one burst's shared work in the benchmark
// process, the way the job tier's group runner does, timing the prefix
// (core.RunContext without NL), the shared sampler set-up
// (variation.NewSharedContext) and one job's Monte-Carlo block
// (yield.BlockSharedContext). Memoization is off so the prefix is paid
// in full. The block's sample hash must equal the job's golden.
func replayYieldPrefix(ctx context.Context, pre yieldPrefix, seed int64, workers int, want yieldGolden) (prefixMS, setupMS, perKSample float64, err error) {
	t := tech.FinFET12()
	cfg := core.Config{Bits: 10, MaxParallel: pre.MaxParallel, Workers: workers, SkipNL: true, FFT: "auto"}
	if pre.TechNode == "bulk65" {
		t = tech.Bulk65()
		cfg.Tech = t
	}
	cfg.Style = placeStyle(ccdac.Style(pre.Style))
	if cfg.Style == place.BlockChessboard {
		cfg.BC = place.BCParams{CoreBits: pre.CoreBits, BlockCells: pre.BlockCells}
	}
	t0 := time.Now()
	res, err := core.RunContext(ctx, cfg)
	prefixMS = msSince(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	wctx := par.WithWorkers(ctx, workers)
	t0 = time.Now()
	sh, err := variation.NewSharedContext(wctx, res.Placement, res.Layout.CellCenter, t)
	setupMS = msSince(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	var tally yield.Tally
	spec := yield.Spec{MaxAbsDNL: jobSpecINL, MaxAbsINL: jobSpecINL}
	a := sh.Analysis(45 * math.Pi / 180)
	t0 = time.Now()
	err = yield.BlockSharedContext(wctx, sh, a, spec, dacmodel.Parasitics{CTSfF: res.Electrical.CTSfF}, 0, jobSamples, seed, &tally)
	perKSample = msSince(t0) * 1000 / jobSamples
	if err != nil {
		return 0, 0, 0, err
	}
	if got := fmt.Sprintf("%016x", tally.Hash); got != want.SampleHash {
		return 0, 0, 0, fmt.Errorf("yield replay of %+v seed %d: sample hash %s, golden %s", pre, seed, got, want.SampleHash)
	}
	return prefixMS, setupMS, perKSample, nil
}
