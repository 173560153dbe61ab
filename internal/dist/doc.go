// Package dist is the distributed execution backend for scenario sweeps:
// a multi-tenant job queue (coordinator) and job-agnostic workers split
// over the shard envelope that internal/scenario already treats as a
// complete wire format.
//
// A Coordinator (NewService) owns a queue of jobs — each one planned sweep: the spec,
// the effective sweep parameters (seeds, window, base seed, sample
// selection), the shard count and the sweep Fingerprint derived from all
// of them — and serves a versioned resource API:
//
//	POST /v1/sweeps                    submit a sweep (spec + overrides);
//	                                   answers the job, idempotently —
//	                                   job IDs derive from the sweep
//	                                   fingerprint and partition
//	GET  /v1/sweeps                    list the queue
//	GET  /v1/sweeps/{id}               one job's status and shard states
//	GET  /v1/sweeps/{id}/events        SSE stream: every accepted shard
//	                                   envelope (replayed, then live) as
//	                                   the worker submitted it, then one
//	                                   complete frame
//	POST /v1/sweeps/{id}/leases        pull work from one job
//	POST /v1/leases                    pull work fair-share across jobs
//	POST /v1/leases/{lease}/renew      extend a lease while computing
//	POST /v1/leases/{lease}/result     push back the shard's ShardResult
//	                                   envelope (compact JSON; any
//	                                   whitespace is accepted); validated
//	                                   (framing, fingerprint, shard
//	                                   coordinates) before acceptance
//	GET  /status                       progress accounting for humans and
//	                                   scripts (whole queue + workers)
//
// Leases are granted fair-share: the coordinator round-robins across
// active jobs (lowest open shard within a job), so one tenant's
// million-scenario matrix cannot starve another's quick sweep. Leases
// expire: a worker that crashes mid-shard stops renewing its claim, and
// after the lease TTL the coordinator re-issues the same shard to the
// next worker that asks. Because sweeps are deterministic — trial seeds
// derive from scenario content, never from placement — a re-executed
// shard produces byte-identical results, so a stale submit racing a
// re-lease is accepted idempotently rather than rejected: every writer
// of a shard writes the same bytes. The coordinator checks that instead
// of trusting it: it keeps each accepted body, compares a duplicate
// with it, and refuses a differing one with 409.
//
// Each envelope is decoded once per process where it lands and encoded
// once. The coordinator reads a submit body once, decodes and validates
// all of it, and forwards the same bytes on the event stream. The spec
// every envelope and lease of a job repeats resolves through
// scenario.SharedSpec, a process-wide memo keyed by the exact spec
// bytes, so the coordinator, the watcher and the worker each decode it
// once per job. On perfbench's fleet workload (a 5,000-scenario family
// sample in 64 shards, 69 KiB envelopes each repeating a 28 KiB spec; a
// 2-CPU host) this cut the median CPU time per run from 1.28 s to
// 1.05 s and the peak heap from 51.6 MiB to 32.3 MiB.
//
// Jobs are resumable. With a state directory configured the coordinator
// persists each job's plan and every accepted envelope; a restart
// rescans the directory, revalidates each envelope exactly as a live
// submit would (ReadShardResult framing plus fingerprint and shard
// coordinates), and re-queues only the missing shards — completed work
// is never re-executed.
//
// A Worker pulls a lease (job-agnostic by default, pinnable to one job)
// and verifies its plan: it recomputes the sweep fingerprint locally
// from the leased spec and its own registry version, refusing the lease
// on mismatch, which catches coordinator/worker version skew. The check
// runs once per distinct plan content — the worker keeps the last
// verified plan with its matrix and selection, and a lease whose plan
// differs from it in any field (spec included) is verified afresh. The
// worker then runs the ordinary Matrix.Sweep over the shard's index
// range — sharing a content-addressed result Cache with colocated
// workers when configured — and submits the envelope.
// When every shard has been submitted the job's envelopes reassemble
// with MergeShards into a report byte-identical to a fresh serial run of
// the same sweep.
//
// Worker and the `goalsweep submit`/`watch` CLI verbs are built on the
// same Client, and the protocol is testable hermetically: LoopbackClient
// wraps the coordinator's http.Handler in an in-process http.Client, so
// the whole submit/lease/crash/re-lease/result cycle runs in one process
// with no sockets. cmd/goalsweep exposes the backend as "goalsweep
// serve" (the service), "goalsweep submit", "goalsweep work" and
// "goalsweep watch"; a one-shot fleet run is the four together, with
// workers started -exit-when-idle.
package dist
