// Serve-side result caching (docs/PERFORMANCE.md, "Serve-side result
// cache"): a byte-bounded LRU of finished generate results keyed by the
// canonicalized request, fronted by a singleflight layer that collapses
// concurrent identical requests into one generation.
//
// Cancellation semantics: the generation runs detached from any single
// request's context, bounded only by the server's RequestTimeout. A
// client that gives up merely unsubscribes; the flight is aborted only
// when its last subscriber leaves, so a canceled leader hands the work
// off to the followers instead of poisoning them with its cancellation.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"time"

	"ccdac"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
)

// cachedResult is the cacheable portion of a generate response: the
// deterministic outputs, none of the per-request envelope.
type cachedResult struct {
	Metrics  ccdac.Metrics
	Warnings []string
}

// bytes estimates the entry's cache charge.
func (c *cachedResult) bytes() int64 {
	n := int64(320) + int64(len(c.Metrics.ParallelWires))*8
	for _, w := range c.Warnings {
		n += int64(len(w)) + 16
	}
	return n
}

// genOutcome is what one generate execution path hands the HTTP layer.
type genOutcome struct {
	metrics  ccdac.Metrics
	warnings []string
	// counters is the run's private counter snapshot, nil when no
	// generation ran on behalf of this request (cache hit, shared
	// flight) — responses must not report counters that were merged
	// into the global registry by some other request's run.
	counters map[string]int64
	status   string // "" | "cold" | "hit" | "shared" | "bypass"
}

// flight is one in-progress generation shared by every concurrent
// request for the same canonical key.
type flight struct {
	done   chan struct{} // closed after out/err are set and the flight left the map
	cancel context.CancelFunc
	subs   int // subscriber count, guarded by Server.flightMu
	out    *genOutcome
	err    error
}

// cacheKey is a request's content-addressed result-cache key: its
// design fields in ccdac.Config.Canonical form plus best_bc, so bodies
// that differ only in JSON field order, omitted defaults, or fields the
// selected style ignores share one entry. The worker budget and cache
// directive cannot change a result and are not hashed. v2: the fft
// directive joined the key — the engines agree only to tolerance, so
// their results must not share cache entries.
func cacheKey(req GenerateRequest) string {
	return req.Config().ResultKey("serve/generate/v2", req.BestBC)
}

// generate routes one request through the cache and singleflight
// layers. ri (may be nil) receives the root span ID of whatever run
// this request observes, for access-log correlation.
func (s *Server) generate(ctx context.Context, req GenerateRequest, cfg ccdac.Config, ri *reqInfo) (*genOutcome, error) {
	if s.cache == nil {
		// Caching disabled server-wide: the pre-cache behavior, verbatim.
		return s.run(ctx, req, cfg, "", ri)
	}
	if req.Cache == "bypass" {
		// An explicit bypass recomputes for real: no result cache, no
		// flight sharing, no stage memoization.
		return s.run(ctx, req, cfg, "bypass", ri)
	}
	if cfg.Validate() != nil {
		// An invalid config must not reach the cache: it may
		// canonicalize to the key of a cached valid one. The run rejects
		// it at its first step and leaves an error trace the recorder
		// retains for cause.
		return s.run(ctx, req, cfg, "", ri)
	}
	key := cacheKey(req)
	if v, ok := s.cache.Get(key); ok {
		cr := v.(*cachedResult)
		return &genOutcome{metrics: cr.Metrics, warnings: cr.Warnings, status: "hit"}, nil
	}
	if out, ok := s.storeLookup(key); ok {
		// Warm restart: the durable tier has this result from a previous
		// process. It re-enters the memory cache on the way out.
		return out, nil
	}

	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		f.subs++
		s.flightMu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, f.err
			}
			s.reg.Counter("ccdac_serve_singleflight_shared_total", nil).Inc()
			return &genOutcome{metrics: f.out.metrics, warnings: f.out.warnings, status: "shared"}, nil
		case <-ctx.Done():
			s.leave(key, f)
			return nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{}), subs: 1}
	// The flight is deliberately detached from the leader's context: it
	// must survive the leader canceling while followers still wait. The
	// server's per-request timeout bounds it instead.
	fctx, cancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
	f.cancel = cancel
	s.flights[key] = f
	s.flightMu.Unlock()

	go s.runFlight(fctx, key, f, req, cfg, ri)

	select {
	case <-f.done:
		return f.out, f.err
	case <-ctx.Done():
		s.leave(key, f)
		return nil, ctx.Err()
	}
}

// leave unsubscribes one waiter from a flight; the last one out aborts
// the generation and frees the key for future requests.
func (s *Server) leave(key string, f *flight) {
	s.flightMu.Lock()
	f.subs--
	if f.subs == 0 {
		if s.flights[key] == f {
			delete(s.flights, key)
		}
		f.cancel()
	}
	s.flightMu.Unlock()
}

// runFlight executes the shared generation. Completion order matters:
// the result is cached before the flight leaves the map (a request
// arriving in between finds the cache entry), and the flight leaves
// the map before done is closed (a waiter that saw done closed never
// races a half-finished map entry).
func (s *Server) runFlight(ctx context.Context, key string, f *flight, req GenerateRequest, cfg ccdac.Config, ri *reqInfo) {
	defer f.cancel()
	// Cold flights arm the stage caches: overlapping configurations
	// (same placement under different theta counts, same layout under a
	// different tech node) reuse intermediates across flights.
	cfg.Memo = true
	out, err := s.run(ctx, req, cfg, "cold", ri)
	if err == nil {
		cr := &cachedResult{Metrics: out.metrics, Warnings: out.warnings}
		s.cache.Put(key, cr, cr.bytes())
		if s.persist != nil {
			// Write-behind: durability happens off the request path; a
			// full queue or a down disk costs persistence, never latency
			// or the request itself.
			s.persist.enqueue(persistJob{key: key, req: req, cr: cr})
		}
	}
	f.out, f.err = out, err
	s.flightMu.Lock()
	if s.flights[key] == f {
		delete(s.flights, key)
	}
	s.flightMu.Unlock()
	close(f.done)
}

// run executes one generation under its own request-private trace and
// folds the trace's metrics into the process registry — on success, on
// pipeline failure, and on cancellation alike, so partial effort is
// never invisible to /metrics. The finished trace is offered to the
// flight recorder (tail sampling decides whether it survives) and, when
// retained for cause, persisted to the artifact store as an OTLP blob.
func (s *Server) run(ctx context.Context, req GenerateRequest, cfg ccdac.Config, status string, ri *reqInfo) (*genOutcome, error) {
	tr := obs.New(obs.Options{PprofLabels: true})
	if ri != nil {
		// The request ID is the trace's correlation tag: it is what
		// /v1/events subscribers filter on.
		tr.SetTag(ri.id)
	}
	tr.AttachBus(s.bus)
	ctx = obs.WithTrace(ctx, tr)
	start := time.Now()
	ctx, root := obs.StartSpan(ctx, "serve.generate")
	if ri != nil {
		root.SetAttr("request_id", ri.id)
		ri.spanID.Store(root.ID())
	}
	if status != "" {
		root.SetAttr("cache", status)
	}

	var res *ccdac.Result
	var err error
	if req.BestBC {
		res, _, err = ccdac.GenerateBestBCContext(ctx, cfg)
	} else {
		res, err = ccdac.GenerateContext(ctx, cfg)
	}

	root.Fail(err)
	root.End()
	tr.Finish()
	snap := tr.Registry().Snapshot()
	s.reg.Merge(snap)
	s.record(tr, req, start, err, res, ri)
	if s.onTrace != nil {
		s.onTrace(tr)
	}
	if err != nil {
		return nil, err
	}
	return &genOutcome{
		metrics:  res.Metrics,
		warnings: res.Warnings,
		counters: snap.Counters,
		status:   status,
	}, nil
}

// record offers the finished trace to the flight recorder, publishes
// the retention decision to the request (for exemplars and the slow-
// request log), and queues interesting traces — anything retained for
// cause, not merely recency — for durable OTLP persistence.
func (s *Server) record(tr *obs.Trace, req GenerateRequest, start time.Time, err error, res *ccdac.Result, ri *reqInfo) {
	if s.recorder == nil {
		return
	}
	rt := obs.RecordedTrace{
		ID: tr.ID(), Tag: tr.Tag(), Name: "serve.generate",
		Start: start, Duration: time.Since(start),
		Spans: tr.Spans(),
	}
	if err != nil {
		rt.Err = err.Error()
		var pe *ccdac.PipelineError
		if errors.As(err, &pe) {
			rt.Warnings = len(pe.Warnings)
		}
	} else if res != nil {
		rt.Warnings = len(res.Warnings)
	}
	reason := s.recorder.Offer(rt)
	if ri != nil {
		ri.trace.Store(&traceRef{id: rt.ID, reason: reason})
	}
	if s.persist != nil && reason != obs.ReasonRecent {
		var buf bytes.Buffer
		if obs.WriteOTLP(&buf, "ccdacd", rt.ID, rt.Spans) == nil {
			s.persist.enqueue(persistJob{traceID: rt.ID, trace: buf.Bytes(), req: req})
		}
	}
	// A for-cause retention also arms a triggered profile capture: the
	// condition that made this trace interesting (slow path, error) is
	// likely still hot, and the capturer's busy/cooldown gates keep a
	// burst of retentions from costing more than one window. A
	// triggered capture's only consumer is the artifact store — without
	// one there is nowhere to put the profile, so triggers stay
	// disarmed and only the manual POST /debug/profile path (which
	// returns artifacts in the response body) remains.
	if s.profcap != nil && s.persist != nil && reason != obs.ReasonRecent {
		s.profcap.Trigger(string(reason), rt.ID, s.persistCapture)
	}
}

// cacheStats surfaces the result cache and singleflight state for
// /metrics injection and tests.
func (s *Server) cacheStats() (memo.Stats, bool) {
	if s.cache == nil {
		return memo.Stats{}, false
	}
	return s.cache.Stats(), true
}

// storeLookup consults the durable tier for a previously persisted
// result: index key → artifact hash → verified blob → cachedResult.
// Any failure — missing, corrupt (the store quarantines it), or
// unparseable — reports a miss and the pipeline recomputes; the store
// can lose data safely, it can only never serve bad data.
func (s *Server) storeLookup(key string) (*genOutcome, bool) {
	if s.store == nil {
		return nil, false
	}
	hash, ok := s.store.LookupIndex(key)
	if !ok {
		return nil, false
	}
	data, err := s.store.Get(hash)
	if err != nil {
		return nil, false
	}
	cr := new(cachedResult)
	if json.Unmarshal(data, cr) != nil {
		return nil, false
	}
	s.cache.Put(key, cr, cr.bytes())
	return &genOutcome{metrics: cr.Metrics, warnings: cr.Warnings, status: "hit"}, true
}
