package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"ccdac"
	"ccdac/internal/core"
	"ccdac/internal/dacmodel"
	"ccdac/internal/memo"
	"ccdac/internal/obs"
	"ccdac/internal/par"
	"ccdac/internal/variation"
	"ccdac/internal/yield"
)

// ErrNotFound is returned by Get/Cancel/Wait for unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// Options configures a Manager.
type Options struct {
	// Workers is the job worker pool size — concurrently running
	// groups, decoupled from the HTTP admission budget (default 2).
	Workers int
	// QueueDepth bounds accepted-but-not-started jobs (default 64);
	// submissions beyond it fail with *OverflowError.
	QueueDepth int
	// MaxBatch caps a compatibility group; MaxWait bounds how long the
	// first job of a group waits for company (defaults 16, 25ms).
	// MaxBatch <= 1 disables coalescing.
	MaxBatch int
	MaxWait  time.Duration
	// CheckpointEvery is the default sample-block size between durable
	// checkpoints of yield jobs (default 50000); Spec.CheckpointEvery
	// overrides per job.
	CheckpointEvery int
	// ComputeWorkers is the intra-job parallelism budget (0 =
	// GOMAXPROCS) — orthogonal to Workers, which counts jobs.
	ComputeWorkers int
	// Memo enables the process-global stage caches for job runs.
	Memo bool
	// Bus, when set, receives every job trace's span/counter events —
	// the feed behind GET /v1/jobs/{id}/events.
	Bus *obs.Bus
	// Registry, when set, accumulates job trace metrics at merge time
	// (the scrape-time /metrics source).
	Registry *obs.Registry
	// Persist, when set, receives job records and checkpoints.
	Persist Persist
	// Logger receives persistence and lifecycle diagnostics.
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 16
	}
	if o.MaxWait == 0 {
		o.MaxWait = 25 * time.Millisecond
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 50000
	}
	return o
}

// jobState is the manager-internal mutable record behind one Job.
type jobState struct {
	mu       sync.Mutex
	job      Job
	canceled bool // user asked; distinguishes cancel from failure
	done     chan struct{}

	ctx      context.Context // canceled by Cancel and by Close
	cancel   context.CancelFunc
	enqueued time.Time
	resumeCk *Checkpoint // restart point installed by Restore
}

func (st *jobState) snapshot() Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.job
}

// Stats is a point-in-time snapshot of the tier's health — the source
// of the ccdac_jobs_* gauges.
type Stats struct {
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	Workers    int `json:"workers"`
	// MeanJobSeconds and MeanQueueWaitSeconds are EWMA estimates; the
	// first drives Retry-After on overflow.
	MeanJobSeconds       float64 `json:"mean_job_seconds"`
	MeanQueueWaitSeconds float64 `json:"mean_queue_wait_seconds"`

	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Overflow  int64 `json:"overflow"`
	// Groups counts dispatched units; Coalesced counts jobs that ran
	// in them, so Coalesced−Groups = PrefixRunsSaved is the number of
	// expensive place→route→extract→covariance runs micro-batching
	// avoided.
	Groups          int64 `json:"groups"`
	Coalesced       int64 `json:"coalesced"`
	PrefixRunsSaved int64 `json:"prefix_runs_saved"`
	Checkpoints     int64 `json:"checkpoints"`
	Resumed         int64 `json:"resumed"`
}

// Manager owns the queue, the coalescer and the worker pool.
type Manager struct {
	opts Options
	q    *queue
	co   *coalescer

	ctx       context.Context
	cancel    context.CancelFunc
	sem       chan struct{} // worker slots; shared with Do
	wg        sync.WaitGroup
	startOnce sync.Once // dispatcher starts on first submission

	mu    sync.Mutex
	jobs  map[string]*jobState
	stats Stats

	ewmaMu      sync.Mutex
	meanJobSec  float64
	meanWaitSec float64
}

// New builds a manager. The dispatcher goroutine starts lazily on the
// first submission and runs until Close, so an idle manager costs
// nothing and leaks nothing.
func New(opts Options) *Manager {
	opts = opts.withDefaults()
	m := &Manager{
		opts: opts,
		q:    newQueue(opts.QueueDepth),
		jobs: make(map[string]*jobState),
		sem:  make(chan struct{}, opts.Workers),
	}
	m.co = newCoalescer(opts.MaxBatch, opts.MaxWait, m.q.push)
	m.ctx, m.cancel = context.WithCancel(context.Background())
	return m
}

func (m *Manager) start() {
	m.startOnce.Do(func() {
		m.wg.Add(1)
		go m.dispatch()
	})
}

// Submit validates, reserves queue capacity, and routes the job
// through the coalescer. It returns the queued record, an
// *OverflowError when the queue is full, or a validation error.
func (m *Manager) Submit(spec Spec) (Job, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	class, err := spec.class()
	if err != nil {
		return Job{}, err
	}
	if err := m.q.reserve(m.retryAfter); err != nil {
		var oe *OverflowError
		if errors.As(err, &oe) {
			m.mu.Lock()
			m.stats.Overflow++
			m.mu.Unlock()
		}
		return Job{}, err
	}
	st := &jobState{
		job: Job{
			ID:        newJobID(),
			Spec:      spec,
			State:     StateQueued,
			CreatedMS: nowMS(),
		},
		done:     make(chan struct{}),
		enqueued: time.Now(),
	}
	st.ctx, st.cancel = context.WithCancel(m.ctx)
	m.start()
	m.mu.Lock()
	m.jobs[st.job.ID] = st
	m.stats.Submitted++
	m.mu.Unlock()
	j := st.snapshot()
	m.persistJob(j)
	m.co.submit(st, coalesceKey(spec), class)
	return j, nil
}

// coalesceKey: only yield jobs batch; generate jobs are always solo.
func coalesceKey(spec Spec) string {
	if spec.Kind == KindYield {
		return spec.prefixKey()
	}
	return ""
}

// Get returns the current record of a job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	return st.snapshot(), true
}

// Cancel requests cancellation. A queued job becomes canceled
// immediately; a running one is interrupted via its context and
// reports canceled when it stops. Terminal jobs are unaffected.
func (m *Manager) Cancel(id string) (Job, bool) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	var j Job
	canceledNow := false
	st.mu.Lock()
	if !st.job.State.Terminal() {
		st.canceled = true
		if st.job.State == StateQueued {
			st.job.State = StateCanceled
			st.job.FinishedMS = nowMS()
			close(st.done)
			canceledNow = true
		}
	}
	j = st.job
	st.mu.Unlock()
	st.cancel()
	if canceledNow {
		m.mu.Lock()
		m.stats.Canceled++
		m.mu.Unlock()
		m.persistJob(j)
	}
	return j, true
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	m.mu.Lock()
	st, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, ErrNotFound
	}
	select {
	case <-st.done:
		return st.snapshot(), nil
	case <-ctx.Done():
		return st.snapshot(), ctx.Err()
	}
}

// Do runs f under the job tier's worker budget — the admission path
// for synchronous work (batch fan-out) that must share the pool
// instead of oversubscribing the host.
func (m *Manager) Do(ctx context.Context, f func() error) error {
	select {
	case m.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-m.ctx.Done():
		return ErrClosed
	}
	defer func() { <-m.sem }()
	return f()
}

// Restore re-installs a persisted job record at boot. Terminal jobs
// become read-only history; non-terminal ones re-enqueue, resuming
// from ck when given (the crash-recovery path).
func (m *Manager) Restore(j Job, ck *Checkpoint) {
	j.Spec = j.Spec.withDefaults()
	if j.State.Terminal() {
		st := &jobState{job: j, done: make(chan struct{}), cancel: func() {}}
		st.ctx = m.ctx
		close(st.done)
		m.mu.Lock()
		m.jobs[j.ID] = st
		m.mu.Unlock()
		return
	}
	class, err := j.Spec.class()
	if err != nil {
		class = classBatch
	}
	j.State = StateQueued
	j.Resumed = true
	j.StartedMS, j.Error = 0, ""
	if ck != nil {
		j.DoneSamples = ck.Done
		j.Checkpoints = ck.Seq
	}
	st := &jobState{
		job:      j,
		done:     make(chan struct{}),
		enqueued: time.Now(),
		resumeCk: ck,
	}
	st.ctx, st.cancel = context.WithCancel(m.ctx)
	m.start()
	m.q.forceReserve()
	m.mu.Lock()
	m.jobs[j.ID] = st
	m.stats.Submitted++
	m.stats.Resumed++
	m.mu.Unlock()
	m.persistJob(st.snapshot())
	m.co.submit(st, coalesceKey(j.Spec), class)
}

// Stats snapshots the tier's health counters and gauges.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	s := m.stats
	m.mu.Unlock()
	s.QueueDepth = m.q.len()
	s.Running = len(m.sem)
	s.Workers = m.opts.Workers
	m.ewmaMu.Lock()
	s.MeanJobSeconds = m.meanJobSec
	s.MeanQueueWaitSeconds = m.meanWaitSec
	m.ewmaMu.Unlock()
	s.PrefixRunsSaved = s.Coalesced - s.Groups
	if s.PrefixRunsSaved < 0 {
		s.PrefixRunsSaved = 0
	}
	return s
}

// RetryAfter estimates when queue capacity frees at the given depth —
// also used by the serve layer for honest 429 shed responses.
func (m *Manager) RetryAfter(depth int) time.Duration { return m.retryAfter(depth) }

func (m *Manager) retryAfter(depth int) time.Duration {
	m.ewmaMu.Lock()
	mean := m.meanJobSec
	m.ewmaMu.Unlock()
	if mean <= 0 {
		mean = 1
	}
	d := time.Duration(float64(depth) * mean / float64(m.opts.Workers) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d.Round(time.Second)
}

// Close stops the tier: pending coalescer groups flush, the queue
// closes (undispatched jobs stay persisted as queued for the next
// boot), running jobs are interrupted — their records remain
// non-terminal so recovery resumes them from the last checkpoint.
func (m *Manager) Close() {
	m.co.drain()
	m.cancel()
	m.q.close()
	m.wg.Wait()
}

// dispatch pops groups and hands each to a worker slot.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		g, err := m.q.pop(m.ctx)
		if err != nil {
			return
		}
		select {
		case m.sem <- struct{}{}:
		case <-m.ctx.Done():
			return
		}
		m.wg.Add(1)
		go func(g *group) {
			defer m.wg.Done()
			defer func() { <-m.sem }()
			m.runGroup(g)
		}(g)
	}
}

// runGroup executes one dispatched group on the current worker slot.
func (m *Manager) runGroup(g *group) {
	live := m.beginRun(g)
	if len(live) == 0 {
		return
	}
	start := time.Now()
	if live[0].snapshot().Spec.Kind == KindYield {
		m.runYieldGroup(live)
	} else {
		for _, st := range live {
			m.runGenerate(st)
		}
	}
	perJob := time.Since(start).Seconds() / float64(len(live))
	m.ewmaMu.Lock()
	m.meanJobSec = ewma(m.meanJobSec, perJob)
	m.ewmaMu.Unlock()
	m.mu.Lock()
	m.stats.Groups++
	m.stats.Coalesced += int64(len(live))
	m.mu.Unlock()
}

// beginRun filters out jobs canceled while queued and marks the rest
// running.
func (m *Manager) beginRun(g *group) []*jobState {
	now := time.Now()
	var live []*jobState
	for _, st := range g.items {
		st.mu.Lock()
		if st.job.State != StateQueued || st.canceled {
			st.mu.Unlock()
			continue
		}
		st.job.State = StateRunning
		st.job.StartedMS = nowMS()
		st.mu.Unlock()
		m.ewmaMu.Lock()
		m.meanWaitSec = ewma(m.meanWaitSec, now.Sub(st.enqueued).Seconds())
		m.ewmaMu.Unlock()
		live = append(live, st)
	}
	for _, st := range live {
		st.mu.Lock()
		st.job.Coalesced = len(live)
		j := st.job
		st.mu.Unlock()
		m.persistJob(j)
	}
	return live
}

// runYieldGroup is micro-batching's payoff: one expensive prefix —
// place, route, extract, covariance — shared by every job in the
// group, then per-job Monte-Carlo tails. The prefix runs detached
// from any single job's context (mirroring the serve cache's flight
// detachment): cancelling one rider must not kill the others' work.
func (m *Manager) runYieldGroup(live []*jobState) {
	leader := live[0]
	spec := leader.snapshot().Spec

	tr := m.newTrace(leader.job.ID)
	pctx := obs.WithTrace(m.ctx, tr)
	pctx, root := obs.StartSpan(pctx, "jobs.prefix")
	// The Monte-Carlo tail is the nonlinearity analysis: the prefix
	// skips the generate-side sweep.
	cfg := m.config(spec)
	cfg.SkipNonlinearity = true
	ccfg, err := cfg.CoreConfig()
	var res *core.Result
	var sh *variation.Shared
	if err == nil {
		res, err = core.RunContext(pctx, ccfg)
	}
	if err == nil {
		sh, err = variation.NewSharedContext(m.computeCtx(pctx, spec), res.Placement, res.Layout.CellCenter, ccfg.Tech)
	}
	root.Fail(err)
	root.End()
	tr.Finish()
	m.mergeTrace(tr)
	if err != nil {
		for _, st := range live {
			m.finishErr(st, err)
		}
		return
	}
	for _, st := range live {
		m.runYieldTail(st, sh, res)
	}
}

// runYieldTail runs one job's cheap tail over the shared prefix: the
// gradient analysis at its theta, then the checkpointed Monte-Carlo
// block loop. The tail honors the job's own context (DELETE cancels
// just this rider).
func (m *Manager) runYieldTail(st *jobState, sh *variation.Shared, res *core.Result) {
	spec := st.snapshot().Spec
	tr := m.newTrace(st.job.ID)
	ctx := obs.WithTrace(st.ctx, tr)
	ctx = m.computeCtx(ctx, spec)
	ctx, root := obs.StartSpan(ctx, "jobs.yield")
	err := m.yieldLoop(ctx, st, spec, sh, res)
	root.Fail(err)
	root.End()
	tr.Finish()
	m.mergeTrace(tr)
	if err != nil {
		m.finishErr(st, err)
	}
}

// yieldLoop folds sample blocks [from, to) into the tally, durably
// checkpointing between blocks. Sample s depends only on (seed, s),
// so the block partition — and a crash-restart mid-stream — cannot
// change the final tally or its hash.
func (m *Manager) yieldLoop(ctx context.Context, st *jobState, spec Spec,
	sh *variation.Shared, res *core.Result) error {
	a := sh.Analysis(spec.ThetaDeg * math.Pi / 180)
	parc := dacmodel.Parasitics{CTSfF: res.Electrical.CTSfF}
	ys := yield.Spec{MaxAbsDNL: spec.SpecDNL, MaxAbsINL: spec.SpecINL}
	every := spec.CheckpointEvery
	if every <= 0 {
		every = m.opts.CheckpointEvery
	}

	var tally yield.Tally
	from, seq := 0, 0
	if ck := st.resumeCk; ck != nil && ck.JobID == st.job.ID &&
		ck.Done > 0 && ck.Done <= spec.Samples {
		tally, from, seq = ck.Tally, ck.Done, ck.Seq
	}
	for from < spec.Samples {
		to := from + every
		if to > spec.Samples {
			to = spec.Samples
		}
		bctx, span := obs.StartSpan(ctx, "jobs.mc_block")
		err := yield.BlockSharedContext(bctx, sh, a, ys, parc, from, to, spec.Seed, &tally)
		span.Fail(err)
		span.End()
		if err != nil {
			return err
		}
		obs.Count(ctx, "ccdac_jobs_samples_done_total", int64(to-from))
		from = to
		checkpointed := from < spec.Samples // final block needs no checkpoint
		if checkpointed {
			seq++
		}
		st.mu.Lock()
		st.job.DoneSamples = from
		if checkpointed {
			st.job.Checkpoints = seq
		}
		j := st.job
		st.mu.Unlock()
		if checkpointed && m.opts.Persist != nil {
			ck := Checkpoint{JobID: j.ID, Done: from, Seq: seq, Tally: tally}
			if err := m.opts.Persist.SaveCheckpoint(j, ck); err != nil {
				return fmt.Errorf("jobs: checkpoint %d: %w", seq, err)
			}
			m.mu.Lock()
			m.stats.Checkpoints++
			m.mu.Unlock()
		}
		m.persistJob(j)
	}
	r := tally.Result()
	yr := YieldResult{
		Samples: r.Samples, Passed: r.Passed, Yield: r.Yield,
		CILow: r.CILow, CIHigh: r.CIHigh,
		WorstDNL: r.WorstDNL, WorstINL: r.WorstINL,
		SampleHash: fmt.Sprintf("%016x", tally.Hash),
	}
	yr.Warnings = append(yr.Warnings, res.Warnings...)
	yr.Warnings = append(yr.Warnings, sh.Warnings()...)
	raw, err := json.Marshal(yr)
	if err != nil {
		return err
	}
	m.finishOK(st, raw)
	return nil
}

// runGenerate runs one generate job end to end under its own trace.
func (m *Manager) runGenerate(st *jobState) {
	spec := st.snapshot().Spec
	tr := m.newTrace(st.job.ID)
	ctx := obs.WithTrace(st.ctx, tr)
	ctx, root := obs.StartSpan(ctx, "jobs.generate")
	cfg := m.config(spec)
	var res *ccdac.Result
	var err error
	if spec.BestBC {
		res, _, err = ccdac.GenerateBestBCContext(ctx, cfg)
	} else {
		res, err = ccdac.GenerateContext(ctx, cfg)
	}
	root.Fail(err)
	root.End()
	tr.Finish()
	m.mergeTrace(tr)
	if err != nil {
		m.finishErr(st, err)
		return
	}
	raw, jerr := json.Marshal(GenerateResult{Metrics: res.Metrics, Warnings: res.Warnings})
	if jerr != nil {
		m.finishErr(st, jerr)
		return
	}
	m.finishOK(st, raw)
}

// config is the spec's facade configuration under the manager's
// compute budget and memo setting.
func (m *Manager) config(spec Spec) ccdac.Config {
	cfg := spec.Config()
	cfg.Workers, cfg.Memo = m.opts.ComputeWorkers, m.opts.Memo
	return cfg
}

// computeCtx arms a tail context the way core.RunContext arms its own:
// worker budget, FFT directive, memo mark.
func (m *Manager) computeCtx(ctx context.Context, spec Spec) context.Context {
	ctx = par.WithWorkers(ctx, m.opts.ComputeWorkers)
	if spec.FFT == "off" {
		ctx = variation.WithFFTMode(ctx, variation.FFTOff)
	}
	if m.opts.Memo {
		ctx = memo.WithEnabled(ctx)
	}
	return ctx
}

// newTrace arms a job-tagged trace wired to the SSE bus.
func (m *Manager) newTrace(jobID string) *obs.Trace {
	tr := obs.New(obs.Options{PprofLabels: true})
	tr.SetTag(jobID)
	if m.opts.Bus != nil {
		tr.AttachBus(m.opts.Bus)
	}
	return tr
}

func (m *Manager) mergeTrace(tr *obs.Trace) {
	if m.opts.Registry != nil {
		m.opts.Registry.Merge(tr.Registry().Snapshot())
	}
}

func (m *Manager) finishOK(st *jobState, result json.RawMessage) {
	st.mu.Lock()
	if st.job.State.Terminal() {
		st.mu.Unlock()
		return
	}
	st.job.State = StateDone
	st.job.Result = result
	st.job.FinishedMS = nowMS()
	j := st.job
	close(st.done)
	st.mu.Unlock()
	m.mu.Lock()
	m.stats.Done++
	m.mu.Unlock()
	m.persistJob(j)
}

// finishErr resolves a failed run. User-canceled jobs report
// canceled; jobs interrupted by manager shutdown keep their
// non-terminal record (persisted with progress) so the next boot
// resumes them from the last checkpoint.
func (m *Manager) finishErr(st *jobState, err error) {
	if m.ctx.Err() != nil && errors.Is(err, context.Canceled) {
		st.mu.Lock()
		userCanceled := st.canceled
		j := st.job
		st.mu.Unlock()
		if !userCanceled {
			m.persistJob(j)
			return
		}
	}
	st.mu.Lock()
	if st.job.State.Terminal() {
		st.mu.Unlock()
		return
	}
	if st.canceled || errors.Is(err, context.Canceled) {
		st.job.State = StateCanceled
	} else {
		st.job.State = StateFailed
	}
	st.job.Error = err.Error()
	st.job.FinishedMS = nowMS()
	j := st.job
	close(st.done)
	st.mu.Unlock()
	m.mu.Lock()
	if j.State == StateCanceled {
		m.stats.Canceled++
	} else {
		m.stats.Failed++
	}
	m.mu.Unlock()
	m.persistJob(j)
}

func (m *Manager) persistJob(j Job) {
	if m.opts.Persist != nil {
		m.opts.Persist.SaveJob(j)
	}
}

// ewma folds one observation into a 0.2-alpha moving mean.
func ewma(mean, v float64) float64 {
	if mean == 0 {
		return v
	}
	return 0.8*mean + 0.2*v
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j%016x", nowMS())
	}
	return "j" + hex.EncodeToString(b[:])
}
