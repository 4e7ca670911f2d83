package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"time"

	"ccdac"
	"ccdac/internal/memo"
	"ccdac/internal/serve"
)

const (
	// missEvery sets the write share: one miss in each block of
	// missEvery requests, at a seeded position in the block. It is sized
	// so that misses take about half of the client's time at the commit
	// that added the benchmark (on 2 vCPUs a hit takes about 0.1 ms of
	// the client's loop and a miss about 8 ms on average): then a 2×
	// change in the cost of either path moves throughput_per_s by about
	// a third, beyond its 0.25 bound, while latency_p50_ms still falls on
	// hits. BENCHMARK.md, "serve-mix request mix", gives the criterion
	// and results/ the check; the stamp reports miss_time_share.
	missEvery = 80
	// serveBlocksPerSecond sizes the timed phase: --seconds × this many
	// blocks, about --seconds of wall time on 2 vCPUs at the commit that
	// added the benchmark. The work is fixed, not the time, so the state
	// the daemon keeps per miss (cache, memo and store entries) does not
	// grow with a faster build and peak_rss_mb measures the program.
	serveBlocksPerSecond = 64
	// serveSetup is the number of set-up rounds; each boots a fresh
	// daemon and warms the whole hot set.
	serveSetup = 5
	// missChecks is how many misses per kind are re-computed with
	// ccdac.GenerateContext after the timed phase.
	missChecks = 8
)

// missKinds is the fixed cycle of miss kinds, three theta misses to one
// cold one. A traced run alternates traced and untraced blocks; the two
// cold misses sit at an odd and an even position of the cycle, so both
// halves see the same mix.
var missKinds = [8]string{"theta", "theta", "theta", "cold", "theta", "theta", "cold", "theta"}

// genReq is the request body of POST /v1/generate.
type genReq = serve.GenerateRequest

// hotSet is every 6–10-bit config of the three styles at one or two
// parallel wires: the keys reads hit, warmed during set-up.
func hotSet() []genReq {
	var hot []genReq
	for bits := 6; bits <= 10; bits++ {
		for _, st := range gen12Styles {
			for _, mp := range []int{0, 2} {
				hot = append(hot, genReq{Bits: bits, Style: string(st), MaxParallel: mp})
			}
		}
	}
	return hot
}

// thetaMisses are keys that reuse a hot layout with a new theta_steps:
// the stage memo serves place/route/extract/covariance and only the
// analysis runs. Steps come in shuffled bands of eight (9–16 first,
// then 17–24, ...), so the analysis cost of a miss barely drifts.
func thetaMisses(rng *rand.Rand, hot []genReq) []genReq {
	var out []genReq
	for _, band := range [][2]int{{9, 16}, {17, 24}, {25, 32}, {33, 40}, {41, 48}} {
		var b []genReq
		for _, h := range hot {
			for s := band[0]; s <= band[1]; s++ {
				h.ThetaSteps = s
				b = append(b, h)
			}
		}
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		out = append(out, b...)
	}
	return out
}

// coldMisses are 6–9-bit layouts outside the hot set. They come in
// cycles that take, for each resolution, one spiral-or-chessboard key
// (the two alternate by cycle) and three block-chessboard keys, so every
// run sees the same cost mix; the order within a stratum is seeded.
func coldMisses(rng *rand.Rand) []genReq {
	bcShapes := []genReq{
		{Style: "block-chessboard"}, // the default 4/2 structure
		{Style: "block-chessboard", CoreBits: 2, BlockCells: 1},
		{Style: "block-chessboard", CoreBits: 2, BlockCells: 2},
		{Style: "block-chessboard", CoreBits: 2, BlockCells: 4},
		{Style: "block-chessboard", CoreBits: 4, BlockCells: 1},
		{Style: "block-chessboard", CoreBits: 4, BlockCells: 4},
	}
	stratum := func(bits int, shapes []genReq) []genReq {
		var st []genReq
		for _, tn := range []string{"finfet12", "bulk65"} {
			for _, mp := range []int{0, 2, 3, 4, 5, 6, 7, 8} {
				for i, s := range shapes {
					if tn == "finfet12" && (mp == 0 || mp == 2) && i == 0 {
						continue // in the hot set
					}
					s.Bits, s.MaxParallel, s.TechNode = bits, mp, tn
					st = append(st, s)
				}
			}
		}
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
		return st
	}
	var out []genReq
	var spiral, chess, bc [][]genReq
	for bits := 6; bits <= 9; bits++ {
		spiral = append(spiral, stratum(bits, []genReq{{Style: "spiral"}}))
		chess = append(chess, stratum(bits, []genReq{{Style: "chessboard"}}))
		bc = append(bc, stratum(bits, bcShapes))
	}
	for c := 0; c < 2*len(spiral[0]); c++ {
		for b := range spiral {
			wire := spiral[b]
			if c%2 == 1 {
				wire = chess[b]
			}
			out = append(out, wire[c/2])
			out = append(out, bc[b][3*c:3*c+3]...)
		}
	}
	return out
}

// served is one timed response kept for checking: the first hit of
// each hot key (later hits must be byte-equal to it) and every miss.
type served struct {
	op   int // index into the op stream
	key  int // hot index, or -1 for a miss
	kind string
	req  genReq
	body []byte
}

// runServeMix is a closed loop with one client against an in-process
// daemon on loopback. Reads are Zipf-popular hits over the warmed hot
// set; one request in each block of missEvery is a never-seen miss, in
// a fixed cycle of three hot-layout theta misses to one fully cold
// layout. The timed phase is a fixed number of blocks.
func runServeMix(ctx context.Context, p params) (*outcome, error) {
	rng := rand.New(rand.NewSource(p.seed))
	hot := hotSet()
	rank := rng.Perm(len(hot)) // Zipf rank r serves hot[rank[r]]
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
	misses := map[string][]genReq{"theta": thetaMisses(rng, hot), "cold": coldMisses(rng)}
	perBlock := max(p.missesPerBlock, 1)
	blocks := p.seconds * serveBlocksPerSecond
	need := map[string]int{}
	for i := 0; i < blocks*perBlock; i++ {
		need[missKinds[i%len(missKinds)]]++
	}
	if need["theta"] > len(misses["theta"]) || need["cold"] > len(misses["cold"]) {
		return nil, fmt.Errorf("serve-mix: %d blocks of %d misses need more never-seen keys than the catalog has (%d theta, %d cold); use fewer --seconds",
			blocks, perBlock, len(misses["theta"]), len(misses["cold"]))
	}
	hotBodies := make([][]byte, len(hot))
	for i, h := range hot {
		b, err := json.Marshal(h)
		if err != nil {
			return nil, err
		}
		hotBodies[i] = b
	}
	out := &outcome{tailPct: 0.9999, layers: map[string]metric{}}

	var d *daemon
	var buf bytes.Buffer
	roundStart := procStart
	for r := 0; r < serveSetup; r++ {
		if d != nil {
			// Tearing down the previous round (draining its store's
			// write-behind fsyncs) is not set-up work.
			d.stop()
			roundStart = time.Now()
		}
		memo.PurgeAll()
		var err error
		if d, err = startDaemon(p.root, "serve-mix"); err != nil {
			return nil, err
		}
		for _, i := range rng.Perm(len(hot)) {
			code, err := d.post("/v1/generate", hotBodies[i], &buf)
			if err != nil || code != 200 {
				d.stop()
				return nil, fmt.Errorf("serve-mix set-up %+v: status %d %v", hot[i], code, err)
			}
		}
		now := time.Now()
		out.setupRounds = append(out.setupRounds, now.Sub(roundStart).Seconds())
		roundStart = now
	}
	defer d.stop()

	// Every per-op record is allocated up front, so the benchmark's own
	// memory does not depend on how fast the phase runs.
	nOps := blocks * missEvery
	out.ops = make([]op, 0, nOps)
	var (
		kept      = make([]served, 0, len(hot)+blocks*perBlock)
		opKey     = make([]int8, 0, nOps) // hot index per op, -1 for a miss
		hitRef    = make([]uint64, len(hot))
		hitSeen   = make([]bool, len(hot))
		isMiss    = make([]bool, missEvery)
		used      = map[string]int{}
		missMS    = map[string]float64{}
		missSeq   int
		truncated bool
		// Traced run only: per-op wall times of both halves, and the
		// traced half's per-layer samples.
		wall                  [2][]float64
		hitMS, overMS         []float64
		missLat, computeMS    []float64
		tracedOps, hits, shed int
	)
	if p.trace {
		half := nOps/2 + missEvery
		wall = [2][]float64{make([]float64, 0, half), make([]float64, 0, half)}
		hitMS, overMS = make([]float64, 0, half), make([]float64, 0, half)
		missLat, computeMS = make([]float64, 0, blocks*perBlock), make([]float64, 0, blocks*perBlock)
	}
	var m0 map[string]float64
	if p.trace {
		m0 = scrapeMetrics(d, &buf)
	}
	rt0 := readRuntime()
	start := time.Now()
	phaseCap := time.Duration(p.seconds) * time.Second * phaseCapFactor
	for b := 0; b < blocks; b++ {
		if b > 0 && time.Since(start) > phaseCap {
			truncated = true
			break
		}
		clear(isMiss)
		for _, j := range rng.Perm(missEvery)[:perBlock] {
			isMiss[j] = true
		}
		tracedBlock := p.trace && b%2 == 1
		for j := 0; j < missEvery; j++ {
			i := len(out.ops)
			key, kind, body := -1, "hit", []byte(nil)
			var req genReq
			if isMiss[j] {
				kind = missKinds[missSeq%len(missKinds)]
				req = misses[kind][used[kind]]
				used[kind]++
				missSeq++
				var err error
				if body, err = json.Marshal(req); err != nil {
					return nil, err
				}
			} else {
				key = rank[zipf.Uint64()]
				body = hotBodies[key]
			}

			t0 := time.Now()
			code, err := d.post("/v1/generate", body, &buf)
			ms := msSince(t0)

			o := op{ms: ms, ok: err == nil && code == 200}
			if code == 429 {
				shed++
			}
			if o.ok && key >= 0 {
				// A hit must say so, and its metrics must be byte-equal
				// to every other hit of the same key.
				resp := buf.Bytes()
				at := bytes.Index(resp, []byte(`"metrics":`))
				o.ok = at >= 0 && cacheStatus(resp[:at]) == "hit"
				if o.ok {
					h := fnv.New64a()
					h.Write(resp[at:])
					if !hitSeen[key] {
						hitSeen[key] = true
						hitRef[key] = h.Sum64()
						kept = append(kept, served{op: i, key: key, kind: kind, req: hot[key], body: append([]byte(nil), resp...)})
					} else {
						o.ok = h.Sum64() == hitRef[key]
					}
				}
			} else if o.ok {
				kept = append(kept, served{op: i, key: -1, kind: kind, req: req, body: append([]byte(nil), buf.Bytes()...)})
			}
			if key < 0 {
				missMS[kind] += ms
			}
			out.ops = append(out.ops, o)
			opKey = append(opKey, int8(key))

			if tracedBlock && o.ok {
				// The trace work: read the server's own compute time
				// from the response head and file the op by cache status.
				tracedOps++
				head := buf.Bytes()
				if at := bytes.Index(head, []byte(`"metrics":`)); at >= 0 {
					head = head[:at]
				}
				elapsed := jsonNumber(head, "elapsed_seconds") * 1000
				if cacheStatus(head) == "hit" {
					hits++
					hitMS = append(hitMS, ms)
					overMS = append(overMS, ms-elapsed)
				} else {
					missLat = append(missLat, ms)
					computeMS = append(computeMS, elapsed)
				}
			}
			if p.trace {
				// An op's wall time runs from its request to the end of
				// its bookkeeping, so in traced blocks it holds the
				// trace work.
				wall[b%2] = append(wall[b%2], msSince(t0))
			}
		}
	}
	out.elapsed = time.Since(start)
	rt1 := readRuntime()
	out.notes = map[string]any{"theta_misses": used["theta"], "cold_misses": used["cold"],
		"miss_every": missEvery, "misses_per_block": perBlock, "blocks": blocks, "truncated": truncated,
		"theta_miss_mean_ms": missMS["theta"] / float64(max(used["theta"], 1)),
		"cold_miss_mean_ms":  missMS["cold"] / float64(max(used["cold"], 1)),
		"miss_time_share":    (missMS["theta"] + missMS["cold"]) / (out.elapsed.Seconds() * 1000)}
	if p.trace {
		d.srv.FlushStore()
		m1 := scrapeMetrics(d, &buf)
		delta := func(name string) float64 { return m1[name] - m0[name] }
		n := float64(max(tracedOps, 1))
		memoHits, memoMisses := delta("ccdac_memo_hits_total"), delta("ccdac_memo_misses_total")
		out.layers["serve.hit_ratio"] = metric{float64(hits) / n, "ratio"}
		out.layers["serve.shed_ratio"] = metric{float64(shed) / float64(len(out.ops)), "ratio"}
		out.layers["serve.hit_ms"] = metric{median(hitMS), "ms"}
		out.layers["serve.miss_ms"] = metric{median(missLat), "ms"}
		out.layers["serve.overhead_ms"] = metric{median(overMS), "ms"}
		out.layers["serve.compute_ms"] = metric{median(computeMS), "ms"}
		out.layers["memo.hit_ratio"] = metric{memoHits / max(memoHits+memoMisses, 1), "ratio"}
		out.layers["store.writes"] = metric{delta("ccdac_store_writes_total"), "count"}
		out.layers["store.dropped"] = metric{delta("ccdac_store_persist_dropped_total"), "count"}
		runtimeLayers(out.layers, rt0, rt1, len(out.ops))
		out.layers["trace.overhead_ratio"] = metric{overheadRatio(wall[1], wall[0]), "ratio"}
		if err := fillAbsentLayers(p.root, out.layers); err != nil {
			return nil, err
		}
	}

	// Outside the timed phase: re-compute every hot key and a seeded
	// sample of misses of each kind with the library, and compare.
	bad, err := checkServed(ctx, rng, kept)
	if err != nil {
		return nil, err
	}
	for _, s := range bad {
		if s.key < 0 {
			out.ops[s.op].ok = false
			continue
		}
		for i, k := range opKey {
			if int(k) == s.key {
				out.ops[i].ok = false // every hit of a wrong hot key is wrong
			}
		}
	}
	return out, nil
}

// jsonNumber reads the number after "key": in a JSON object's bytes
// without decoding the object; 0 if it is absent.
func jsonNumber(b []byte, key string) float64 {
	_, v, ok := bytes.Cut(b, []byte(`"`+key+`":`))
	if !ok {
		return 0
	}
	end := bytes.IndexAny(v, ",}")
	if end < 0 {
		return 0
	}
	f, _ := strconv.ParseFloat(string(bytes.TrimSpace(v[:end])), 64)
	return f
}

// cacheStatus extracts the cache_status value from the head of a
// response body without decoding the whole body.
func cacheStatus(head []byte) string {
	_, v, ok := bytes.Cut(head, []byte(`"cache_status":`))
	if !ok {
		return ""
	}
	v = bytes.TrimLeft(v, " ")
	if len(v) < 2 || v[0] != '"' {
		return ""
	}
	if end := bytes.IndexByte(v[1:], '"'); end >= 0 {
		return string(v[1 : 1+end])
	}
	return ""
}

// checkServed decodes every kept response, re-computes every hot key
// and a seeded sample of each miss kind with the library, and returns
// the responses that were wrong.
func checkServed(ctx context.Context, rng *rand.Rand, kept []served) ([]served, error) {
	var bad []served
	byKind := map[string][]int{}
	for i, s := range kept {
		if s.key < 0 {
			byKind[s.kind] = append(byKind[s.kind], i)
		}
	}
	check := map[int]bool{}
	for i, s := range kept {
		if s.key >= 0 {
			check[i] = true
		}
	}
	for _, kind := range []string{"theta", "cold"} {
		idx := byKind[kind]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx[:min(missChecks, len(idx))] {
			check[i] = true
		}
	}
	for i, s := range kept {
		var resp serve.GenerateResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			bad = append(bad, s)
			continue
		}
		want := "hit"
		if s.key < 0 {
			want = "cold"
		}
		if resp.CacheStatus != want || len(resp.Metrics.ParallelWires) != s.req.Bits+1 || !(resp.Metrics.F3dBHz > 0) {
			bad = append(bad, s)
			continue
		}
		if !check[i] {
			continue
		}
		res, err := ccdac.GenerateContext(ctx, ccdacConfig(s.req))
		if err != nil {
			return nil, fmt.Errorf("re-computing %+v: %w", s.req, err)
		}
		got, exp := resp.Metrics, res.Metrics
		got.PlaceSeconds, got.RouteSeconds, exp.PlaceSeconds, exp.RouteSeconds = 0, 0, 0, 0
		if !reflect.DeepEqual(got, exp) || len(resp.Warnings) != len(res.Warnings) {
			bad = append(bad, s)
		}
	}
	return bad, nil
}

// ccdacConfig maps a generate request onto the library config, the
// way the daemon does (minus its worker budget, which cannot change
// results).
func ccdacConfig(g genReq) ccdac.Config {
	return ccdac.Config{
		Bits: g.Bits, Style: ccdac.Style(g.Style), CoreBits: g.CoreBits, BlockCells: g.BlockCells,
		MaxParallel: g.MaxParallel, ThetaSteps: g.ThetaSteps, TechNode: g.TechNode, FFT: g.FFT,
	}
}

// scrapeMetrics reads GET /metrics and sums each metric's series over
// its labels.
func scrapeMetrics(d *daemon, buf *bytes.Buffer) map[string]float64 {
	out := map[string]float64{}
	if code, err := d.get("/metrics", buf); err != nil || code != 200 {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name := f[0]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[name] += v
		}
	}
	return out
}
