package dist

import (
	"fmt"

	"repro/internal/scenario"
)

// ProtocolVersion versions the lease/submit wire protocol; both sides
// reject peers speaking any other version, so a mixed deployment fails
// loudly instead of mis-partitioning a sweep.
const ProtocolVersion = 1

// Plan is everything a worker needs to reproduce one sweep's result
// stream: the spec, the effective execution parameters, the sample
// selection, the shard count, and the Fingerprint derived from all of
// them. The coordinator computes the plan once; workers recompute the
// fingerprint locally from the leased spec and their own registry version
// and refuse mismatches, so version skew between coordinator and worker
// binaries cannot silently corrupt a merged report.
type Plan struct {
	Spec        *scenario.Spec `json:"spec"`
	Shards      int            `json:"shards"`
	Seeds       int            `json:"seeds"`
	Window      int            `json:"window"`
	BaseSeed    uint64         `json:"baseSeed"`
	SampleN     int            `json:"sampleN,omitempty"`
	SampleSeed  uint64         `json:"sampleSeed,omitempty"`
	Fingerprint string         `json:"fingerprint"`
}

// NewPlan resolves a sweep into its distributed execution plan: effective
// parameters come from the config against the spec's defaults (exactly as
// a local sweep would resolve them), and the fingerprint is computed under
// the given registry version.
func NewPlan(spec *scenario.Spec, registryVersion string, cfg scenario.SweepConfig,
	shards, sampleN int, sampleSeed uint64) (Plan, error) {
	if err := spec.Validate(); err != nil {
		return Plan{}, err
	}
	if shards < 1 {
		return Plan{}, fmt.Errorf("dist: shard count %d < 1", shards)
	}
	seeds, window, base := cfg.Effective(spec)
	if sampleN <= 0 {
		sampleN, sampleSeed = 0, 0
	}
	return Plan{
		Spec:        spec,
		Shards:      shards,
		Seeds:       seeds,
		Window:      window,
		BaseSeed:    base,
		SampleN:     sampleN,
		SampleSeed:  sampleSeed,
		Fingerprint: scenario.Fingerprint(spec, registryVersion, seeds, window, base, sampleN, sampleSeed),
	}, nil
}

// Validate checks the plan's structural well-formedness on receipt.
func (p *Plan) Validate() error {
	if p.Spec == nil {
		return fmt.Errorf("dist: plan has no spec")
	}
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if p.Shards < 1 {
		return fmt.Errorf("dist: plan shard count %d < 1", p.Shards)
	}
	if p.Fingerprint == "" {
		return fmt.Errorf("dist: plan has no fingerprint")
	}
	return nil
}

// Selection materializes the plan's scenario selection over m: the sample
// when one is planned, otherwise nil (the full enumeration).
func (p *Plan) Selection(m *scenario.Matrix) []int64 {
	if p.SampleN > 0 {
		return m.Sample(p.SampleN, p.SampleSeed)
	}
	return nil
}

// Lease response statuses.
const (
	// StatusLease carries a work unit: run the shard, submit the envelope.
	StatusLease = "lease"
	// StatusWait means every remaining shard is leased to someone else;
	// poll again — a lease may yet expire.
	StatusWait = "wait"
	// StatusDone answers a job-scoped lease request whose job is
	// complete: no work for it can appear again, so the worker exits.
	StatusDone = "done"
	// StatusIdle answers a job-agnostic lease request when every queued
	// job is complete: the queue still accepts submissions, so a worker
	// may poll on or exit, its choice.
	StatusIdle = "idle"
)

// LeaseRequest is a worker's ask for work.
type LeaseRequest struct {
	Protocol int    `json:"protocol"`
	Worker   string `json:"worker"`
	Parallel int    `json:"parallel,omitempty"`
}

// LeaseResponse answers a lease request; Status selects which fields are
// meaningful.
type LeaseResponse struct {
	Protocol int    `json:"protocol"`
	Status   string `json:"status"`
	LeaseID  string `json:"leaseID,omitempty"`
	// Job names the job the lease belongs to (StatusLease only), for
	// accounting and event streams.
	Job   string         `json:"job,omitempty"`
	Shard scenario.Shard `json:"shard"`
	Plan  *Plan          `json:"plan,omitempty"`
	// TTLMs is the lease's lifetime in milliseconds (StatusLease only):
	// the worker must submit or renew within it, and renews at a
	// fraction of it while computing.
	TTLMs int64 `json:"ttlMs,omitempty"`
}

// RenewResponse answers a lease renewal. Renewed is false when the lease
// is no longer current — its shard was already submitted, or it expired
// and was re-issued to another worker. A worker whose renewal fails keeps
// computing: its eventual submit is still accepted (idempotently if the
// re-leased worker finished first).
type RenewResponse struct {
	Renewed bool  `json:"renewed"`
	TTLMs   int64 `json:"ttlMs,omitempty"`
}

// SubmitResponse acknowledges an accepted envelope.
type SubmitResponse struct {
	Accepted bool `json:"accepted"`
	// Done reports whether this submission completed the envelope's job.
	Done bool `json:"done"`
}

// SweepRequest is the POST /v1/sweeps body: the same spec JSON the local
// CLI takes, plus the execution overrides a -spec sweep would pass as
// flags. Zero overrides mean the spec's defaults; Shards 0 asks the
// coordinator to size the partition itself from worker count and the
// observed per-shard latency (-shards auto).
type SweepRequest struct {
	Protocol   int            `json:"protocol"`
	Spec       *scenario.Spec `json:"spec"`
	Shards     int            `json:"shards,omitempty"`
	Seeds      int            `json:"seeds,omitempty"`
	Window     int            `json:"window,omitempty"`
	BaseSeed   uint64         `json:"baseSeed,omitempty"`
	SampleN    int            `json:"sampleN,omitempty"`
	SampleSeed uint64         `json:"sampleSeed,omitempty"`
}

// SweepResponse answers a sweep submission. Job IDs are derived from the
// sweep fingerprint and shard count, so resubmitting the same sweep
// returns the existing job (Created false) instead of forking a duplicate.
type SweepResponse struct {
	Protocol int       `json:"protocol"`
	Created  bool      `json:"created"`
	Job      JobStatus `json:"job"`
}

// JobStatus is one job's progress accounting.
type JobStatus struct {
	ID          string `json:"id"`
	Spec        string `json:"spec"`
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Done        int    `json:"done"`
	Leased      int    `json:"leased"`
	Pending     int    `json:"pending"`
	// Resumed counts shards restored from on-disk envelopes when the
	// coordinator (re)started, rather than executed under this process.
	Resumed  int  `json:"resumed,omitempty"`
	Complete bool `json:"complete"`
	// Progress is Done/Shards in [0,1].
	Progress float64 `json:"progress"`
	// ShardStates holds one entry per shard, in shard-index order; the
	// job list (GET /v1/sweeps) omits it, the single-job view carries it.
	ShardStates []ShardStatus `json:"shardStates,omitempty"`
}

// StatusResponse is the coordinator's progress accounting: the whole
// queue under Jobs, plus the worker fleet.
type StatusResponse struct {
	Protocol int `json:"protocol"`
	Workers  int `json:"workers"`
	// Complete reports whether every job in the queue is complete (and at
	// least one exists).
	Complete bool `json:"complete"`
	// Jobs holds one entry per job in submission order, each with its
	// shard states.
	Jobs []JobStatus `json:"jobs"`
	// WorkerStates holds one entry per known worker, sorted by ID.
	WorkerStates []WorkerStatus `json:"workerStates,omitempty"`
}

// ShardStatus is one shard's live state.
type ShardStatus struct {
	Shard string `json:"shard"` // "i/n"
	State string `json:"state"` // "pending", "leased" or "done"
	// Lease is the shard's current (or, when done, final) lease ID.
	Lease string `json:"lease,omitempty"`
	// Worker holds the lease's worker ID.
	Worker string `json:"worker,omitempty"`
}

// WorkerStatus is one worker's live state as the coordinator sees it.
type WorkerStatus struct {
	ID       string `json:"id"`
	Parallel int    `json:"parallel,omitempty"`
	// Submitted counts envelopes accepted from this worker.
	Submitted int `json:"submitted"`
	// LastSeenMs is how long ago (milliseconds) the coordinator last
	// heard from this worker.
	LastSeenMs int64 `json:"lastSeenMs"`
}

// SSE event types on GET /v1/sweeps/{id}/events.
const (
	// EventShard carries one accepted shard envelope (the ShardResult
	// JSON as submitted, on one line) in its data field; the event ID is
	// the shard index.
	// Subscribing to a job replays every already-accepted shard first, in
	// shard-index order, then streams the rest as they land.
	EventShard = "shard"
	// EventComplete closes a job's stream: every shard has been accepted.
	// Its data is a CompleteEvent.
	EventComplete = "complete"
)

// CompleteEvent is the data payload of an EventComplete frame.
type CompleteEvent struct {
	ID     string `json:"id"`
	Spec   string `json:"spec"`
	Shards int    `json:"shards"`
}
