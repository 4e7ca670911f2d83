// Package jobs is the asynchronous job tier behind POST /v1/jobs: a
// bounded priority queue feeding a worker pool decoupled from the HTTP
// admission budget, so workloads that do not fit a request/response
// timeout — million-sample yield Monte Carlo, 14-bit analyses, best-BC
// sweeps — run to completion instead of burning an inflight slot or
// being shed.
//
// The performance lever is compatibility micro-batching: queued yield
// jobs that share the expensive prefix (placement, routing, extraction
// and the covariance/FFT plan are determined by the same fields) while
// differing only in cheap tail fields (seed, sample count, spec
// bounds, gradient angle) are coalesced into one group. The group runs
// the prefix once and fans the per-job Monte-Carlo tails across the
// shared structure. Because sample s of a run depends only on
// (seed, s) — the splitmix64 per-sample streams of
// internal/variation — a coalesced job's output is byte-identical to
// the same job run solo, and a checkpointed job resumes mid-stream
// after a crash with identical final output. See docs/PERFORMANCE.md,
// "Micro-batching".
package jobs

import (
	"encoding/json"
	"fmt"
	"time"

	"ccdac"
	"ccdac/internal/yield"
)

// Job kinds.
const (
	// KindGenerate runs the full constructive flow (ccdac.Generate,
	// or the best-BC sweep when BestBC is set). Never coalesced.
	KindGenerate = "generate"
	// KindYield runs a checkpointed Monte-Carlo yield estimate.
	// Coalescable: jobs sharing a prefix key batch onto one layout.
	KindYield = "yield"
)

// Priority classes, highest first. The queue always dequeues the
// highest class with work; FIFO within a class.
const (
	classInteractive = iota
	classBatch
	classBackground
	numClasses
)

// Spec is the JSON body of POST /v1/jobs: what to run and at what
// priority. The first field block is the coalescing prefix — every
// field that determines the expensive place→route→extract→covariance
// work; yield jobs agreeing on all of them share one prefix run. The
// tail blocks are the cheap per-job fields the group runner fans out.
type Spec struct {
	Kind     string `json:"kind"`
	Priority string `json:"priority,omitempty"` // "interactive" | "batch" (default) | "background"

	// Prefix fields (mirror ccdac.Config / POST /v1/generate).
	Bits        int    `json:"bits"`
	Style       string `json:"style,omitempty"`
	CoreBits    int    `json:"core_bits,omitempty"`
	BlockCells  int    `json:"block_cells,omitempty"`
	MaxParallel int    `json:"max_parallel,omitempty"`
	AnnealSeed  int64  `json:"anneal_seed,omitempty"`
	AnnealMoves int    `json:"anneal_moves,omitempty"`
	TechNode    string `json:"tech_node,omitempty"`
	FFT         string `json:"fft,omitempty"`

	// Generate tail.
	ThetaSteps       int  `json:"theta_steps,omitempty"`
	SkipNonlinearity bool `json:"skip_nonlinearity,omitempty"`
	BestBC           bool `json:"best_bc,omitempty"`

	// Yield tail: the Monte-Carlo estimate's cheap per-job knobs.
	Samples int     `json:"samples,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	SpecINL float64 `json:"spec_inl,omitempty"`
	SpecDNL float64 `json:"spec_dnl,omitempty"` // 0 = same as spec_inl
	// ThetaDeg is the oxide-gradient angle in degrees (default 45).
	ThetaDeg float64 `json:"theta_deg,omitempty"`
	// CheckpointEvery bounds the samples evaluated between durable
	// checkpoints (0 = the manager default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// withDefaults fills the job-tier defaults so records and equality
// checks see one form: the priority, and the tail of the spec's kind
// (the other kind's tail is zeroed). Design fields stay as submitted;
// ccdac.Config.Canonical resolves their defaults.
func (s Spec) withDefaults() Spec {
	if s.Priority == "" {
		s.Priority = "batch"
	}
	if s.Kind == KindYield {
		if s.Samples == 0 {
			s.Samples = 10000
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if s.SpecDNL == 0 {
			s.SpecDNL = s.SpecINL
		}
		if s.ThetaDeg == 0 {
			s.ThetaDeg = 45
		}
		// Yield jobs ignore the generate tail.
		s.ThetaSteps, s.SkipNonlinearity, s.BestBC = 0, false, false
	} else {
		s.Samples, s.Seed, s.SpecINL, s.SpecDNL = 0, 0, 0, 0
		s.ThetaDeg, s.CheckpointEvery = 0, 0
	}
	return s
}

// Validate rejects specs the runner could not execute: the job fields
// here, the design fields exactly as POST /v1/generate does
// (ccdac.Config.Validate). It assumes withDefaults already ran
// (Manager.Submit applies both).
func (s Spec) Validate() error {
	switch s.Kind {
	case KindGenerate:
	case KindYield:
		if s.SpecINL <= 0 || s.SpecDNL <= 0 {
			return fmt.Errorf("jobs: yield jobs need positive spec_inl (got inl=%g dnl=%g)", s.SpecINL, s.SpecDNL)
		}
		if s.Samples < 1 {
			return fmt.Errorf("jobs: yield jobs need at least 1 sample")
		}
		if s.CheckpointEvery < 0 {
			return fmt.Errorf("jobs: checkpoint_every must be >= 0")
		}
	default:
		return fmt.Errorf("jobs: unknown kind %q (want %q or %q)", s.Kind, KindGenerate, KindYield)
	}
	if _, err := s.class(); err != nil {
		return err
	}
	return s.Config().Validate()
}

// class resolves the priority class.
func (s Spec) class() (int, error) {
	switch s.Priority {
	case "interactive":
		return classInteractive, nil
	case "", "batch":
		return classBatch, nil
	case "background":
		return classBackground, nil
	}
	return 0, fmt.Errorf("jobs: unknown priority %q (want \"interactive\", \"batch\" or \"background\")", s.Priority)
}

// Config maps the spec's design fields onto the facade configuration.
// A best-BC sweep runs under the block-chessboard style, which
// GenerateBestBC forces.
func (s Spec) Config() ccdac.Config {
	cfg := ccdac.Config{
		Bits:             s.Bits,
		Style:            ccdac.Style(s.Style),
		CoreBits:         s.CoreBits,
		BlockCells:       s.BlockCells,
		MaxParallel:      s.MaxParallel,
		AnnealSeed:       s.AnnealSeed,
		AnnealMoves:      s.AnnealMoves,
		ThetaSteps:       s.ThetaSteps,
		SkipNonlinearity: s.SkipNonlinearity,
		TechNode:         s.TechNode,
		FFT:              s.FFT,
	}
	if s.BestBC {
		cfg.Style = ccdac.BlockChessboard
	}
	return cfg
}

// prefixKey identifies the expensive shared prefix of a yield job:
// two jobs with equal keys place, route, extract and build covariance
// identically, so the coalescer may run that work once for both. Tail
// fields (seed, samples, specs, theta) are deliberately absent.
func (s Spec) prefixKey() string {
	return s.Config().LayoutKey("jobs/prefix/v1")
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the externally visible job record: returned by Submit,
// GET /v1/jobs/{id}, and persisted across restarts.
type Job struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	CreatedMS  int64 `json:"created_unix_ms"`
	StartedMS  int64 `json:"started_unix_ms,omitempty"`
	FinishedMS int64 `json:"finished_unix_ms,omitempty"`

	// DoneSamples and Checkpoints report a yield job's progress; a
	// poller can derive percent-complete against Spec.Samples.
	DoneSamples int `json:"done_samples,omitempty"`
	Checkpoints int `json:"checkpoints,omitempty"`
	// Resumed marks a job that restarted from a durable checkpoint
	// after a crash or eviction.
	Resumed bool `json:"resumed,omitempty"`
	// Coalesced is the size of the compatibility group the job ran in
	// (1 = solo).
	Coalesced int `json:"coalesced,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`
}

// YieldResult is the Result payload of a finished yield job.
type YieldResult struct {
	Samples  int     `json:"samples"`
	Passed   int     `json:"passed"`
	Yield    float64 `json:"yield"`
	CILow    float64 `json:"ci_low"`
	CIHigh   float64 `json:"ci_high"`
	WorstDNL float64 `json:"worst_dnl"`
	WorstINL float64 `json:"worst_inl"`
	// SampleHash is the rolling FNV-1a over every sample's
	// nonlinearity bits in stream order — the byte-identity witness:
	// solo, coalesced and crash-resumed runs of one spec agree on it
	// exactly or something is wrong.
	SampleHash string   `json:"sample_hash"`
	Warnings   []string `json:"warnings,omitempty"`
}

// GenerateResult is the Result payload of a finished generate job.
type GenerateResult struct {
	Metrics  ccdac.Metrics `json:"metrics"`
	Warnings []string      `json:"warnings,omitempty"`
}

// Checkpoint is one durable partial-progress record of a yield job:
// samples [0, Done) have been folded into Tally. The runner persists
// it synchronously before advancing (workers are off the request
// path, so blocking on fsync is the point — a checkpoint that is not
// durable is not a checkpoint).
type Checkpoint struct {
	JobID string      `json:"job_id"`
	Done  int         `json:"done"`
	Seq   int         `json:"seq"`
	Tally yield.Tally `json:"tally"`
}

// nowMS is the record timestamp base.
func nowMS() int64 { return time.Now().UnixMilli() }
