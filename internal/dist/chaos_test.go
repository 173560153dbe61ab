package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestChaosDistributedByteIdentical is the robustness acceptance
// criterion: a 2-worker distributed sweep under a nonzero seeded fault
// schedule — drops, delays, a duplicate, a truncation, 503s — plus a
// deliberate straggler holding one shard hostage and a corrupt state-dir
// envelope, still completes with a merged report byte-identical to a
// fresh serial run. Deliberately not parallel: it asserts deltas of
// process-global metrics.
func TestChaosDistributedByteIdentical(t *testing.T) {
	stateDir := t.TempDir()
	plan := builtinPlan(t, "quick", 6)

	// Pre-damage the state directory: a truncated envelope for shard 1
	// that resume must heal (remove and re-queue), not trust or die on.
	jobDir := filepath.Join(stateDir, JobID(plan))
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, shardFile(1)), []byte(`{"version":1,"fingerp`), 0o644); err != nil {
		t.Fatal(err)
	}

	healed0 := mStateHealed.With("envelope").Value()
	spec0 := mLeasesSpeculated.With(JobID(plan)).Value()

	// LeaseTTL is a minute of real time, so the straggler's shard can
	// only complete through a speculative re-lease, never TTL expiry.
	coord := newJobService(t, plan, CoordinatorConfig{
		LeaseTTL:       time.Minute,
		SpeculateAfter: time.Millisecond,
		StateDir:       stateDir,
	})
	if got := mStateHealed.With("envelope").Value() - healed0; got != 1 {
		t.Fatalf("healed %d envelopes on resume, want 1", got)
	}

	plain := LoopbackClient(coord)
	straggler, _ := postLease(t, plain, LeaseRequest{Protocol: ProtocolVersion, Worker: "straggler"})
	if straggler.Status != StatusLease {
		t.Fatalf("straggler lease = %+v, want a grant", straggler)
	}

	cs, err := chaos.ParseSpec("drop=2,delay=2:5ms,dup=1,trunc=1,err=2,horizon=6")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(cs, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Both workers share one chaos client: the injected faults land on
	// whichever request reaches each scheduled (op, seq) coordinate.
	client := inj.Client(plain)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &Worker{
				Coordinator: "http://coordinator",
				Client:      client,
				ID:          fmt.Sprintf("chaos-w%d", i),
				Poll:        2 * time.Millisecond,
				Retries:     200,
				ExitOnIdle:  true,
			}
			_, errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	waitJob(t, ctx, coord, plan)

	if got, want := mergedReport(t, coord, plan), serialReport(t, plan); got != want {
		t.Fatal("chaotic merged report differs from fresh serial run")
	}
	if fired := inj.Log(); len(fired) != cs.Total() {
		t.Fatalf("%d of %d scheduled faults fired:\n%s", len(fired), cs.Total(), chaos.FormatLog(fired))
	}
	if got := mLeasesSpeculated.With(JobID(plan)).Value() - spec0; got < 1 {
		t.Fatalf("no speculative re-lease recorded, yet the straggler's shard completed (%d)", got)
	}
}

// TestChaosDeterministicFaultLog pins fault-schedule reproducibility:
// two runs under the same chaos spec and seed fire the identical fault
// log (canonical formatting, byte for byte) and produce byte-identical
// merged reports; a different seed produces a different schedule.
func TestChaosDeterministicFaultLog(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 4)
	cs, err := chaos.ParseSpec("drop=1,delay=1:5ms,dup=1,err=1,horizon=4")
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(seed uint64) (flog, merged string) {
		t.Helper()
		inj, err := chaos.New(cs, seed)
		if err != nil {
			t.Fatal(err)
		}
		coord := newJobService(t, plan, CoordinatorConfig{
			LeaseTTL:       time.Minute,
			SpeculateAfter: time.Millisecond,
		})
		client := inj.Client(LoopbackClient(coord))
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := &Worker{
					Coordinator: "http://coordinator",
					Client:      client,
					ID:          fmt.Sprintf("det-w%d-%d", seed, i),
					Poll:        2 * time.Millisecond,
					Retries:     200,
					ExitOnIdle:  true,
				}
				_, errs[i] = w.Run(ctx)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		}
		waitJob(t, ctx, coord, plan)
		fired := inj.Log()
		if len(fired) != cs.Total() {
			t.Fatalf("%d of %d scheduled faults fired", len(fired), cs.Total())
		}
		return chaos.FormatLog(fired), mergedReport(t, coord, plan)
	}

	log1, rep1 := runOnce(11)
	log2, rep2 := runOnce(11)
	if log1 != log2 {
		t.Fatalf("same chaos seed, different fault logs:\nrun 1:\n%srun 2:\n%s", log1, log2)
	}
	if rep1 != rep2 {
		t.Fatal("same chaos seed, different merged reports")
	}
	if want := serialReport(t, plan); rep1 != want {
		t.Fatal("chaotic merged report differs from fresh serial run")
	}
	if log3, _ := runOnce(12); log3 == log1 {
		t.Fatal("different chaos seeds produced the identical fault log")
	}
}

// TestResumeHealsDamagedState damages a completed job's state directory
// three ways — truncated plan, corrupt envelope, fingerprint-mismatched
// envelope — and pins that a restarted coordinator re-queues exactly the
// two damaged shards (zero re-executed trials for the intact one),
// quarantines the plan and rewrites it when the sweep is resubmitted,
// and still merges byte-identical to a serial run.
// Not parallel: asserts deltas of process-global metrics.
func TestResumeHealsDamagedState(t *testing.T) {
	stateDir := t.TempDir()
	plan := builtinPlan(t, "quick", 3)

	coord1 := newJobService(t, plan, CoordinatorConfig{StateDir: stateDir})
	w1 := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord1), ID: "h1", Poll: time.Millisecond, ExitOnIdle: true}
	if n, err := w1.Run(context.Background()); err != nil || n != 3 {
		t.Fatalf("first run: (%d, %v), want (3, nil)", n, err)
	}

	jobDir := filepath.Join(stateDir, JobID(plan))
	// Damage 1: the plan file is truncated mid-JSON.
	if err := os.WriteFile(filepath.Join(jobDir, jobPlanFile), []byte(`{"spec":`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage 2: shard 2's envelope is garbage.
	if err := os.WriteFile(filepath.Join(jobDir, shardFile(2)), []byte("not an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Damage 3: shard 3's envelope is internally valid but belongs to a
	// different sweep — its fingerprint does not match the plan.
	data, err := os.ReadFile(filepath.Join(jobDir, shardFile(3)))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := scenario.ReadShardResult(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	foreign.Fingerprint = "00000000deadbeef"
	var buf bytes.Buffer
	if err := foreign.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, shardFile(3)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	healedEnv0 := mStateHealed.With("envelope").Value()
	healedPlan0 := mStateHealed.With("plan").Value()
	trialCounter := obs.Default().Counter("goalsweep_engine_trials_started_total",
		"Trials handed to the batch engine.")
	trials0 := trialCounter.Value()

	coord2 := newJobService(t, plan, CoordinatorConfig{StateDir: stateDir})
	if got := mStateHealed.With("envelope").Value() - healedEnv0; got != 2 {
		t.Fatalf("healed %d envelopes, want 2 (shards 2 and 3)", got)
	}
	if got := mStateHealed.With("plan").Value() - healedPlan0; got != 1 {
		t.Fatalf("healed %d plans, want 1 (truncated job.json quarantined)", got)
	}
	jobs := coord2.Jobs()
	if len(jobs) != 1 || jobs[0].Resumed != 1 || jobs[0].Done != 1 || jobs[0].Pending != 2 {
		t.Fatalf("jobs after damaged resume = %+v, want 1 resumed / 1 done / 2 pending", jobs)
	}

	w2 := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(coord2), ID: "h2", Poll: time.Millisecond, ExitOnIdle: true}
	if n, err := w2.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("drain after damage: (%d, %v), want (2, nil)", n, err)
	}
	// Exactly the two damaged shards re-executed: quick = 12 scenarios x
	// 1 seed over 3 shards = 4 trials per shard, so 8 trials, not 12.
	if got := trialCounter.Value() - trials0; got != 8 {
		t.Fatalf("engine started %d trials after damaged resume, want 8 (intact shard re-executed?)", got)
	}
	if got, want := mergedReport(t, coord2, plan), serialReport(t, plan); got != want {
		t.Fatal("merged report after healing differs from fresh serial run")
	}
	// The rewritten plan file is intact again.
	planData, err := os.ReadFile(filepath.Join(jobDir, jobPlanFile))
	if err != nil {
		t.Fatal(err)
	}
	var healedPlan Plan
	if err := decodeJSONStrict(planData, &healedPlan); err != nil {
		t.Fatalf("plan file still corrupt after heal: %v", err)
	}
}

// TestServiceRecoveryQuarantinesCorruptPlan: a service coordinator whose
// state directory holds an unrecoverable plan starts anyway, moves the
// plan aside (job.json.corrupt) so every future restart is clean, and a
// later identical submission can reuse the directory.
func TestServiceRecoveryQuarantinesCorruptPlan(t *testing.T) {
	t.Parallel()

	stateDir := t.TempDir()
	dir := filepath.Join(stateDir, "sw-0123456789abcdef-2")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, jobPlanFile), []byte(`{"spec": tru`), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := NewService(CoordinatorConfig{StateDir: stateDir})
	if err != nil {
		t.Fatalf("service refused to start over a corrupt plan: %v", err)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("recovered %d jobs from a corrupt plan, want 0", len(jobs))
	}
	if _, err := os.Stat(filepath.Join(dir, jobPlanFile+".corrupt")); err != nil {
		t.Fatalf("corrupt plan not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, jobPlanFile)); !os.IsNotExist(err) {
		t.Fatalf("corrupt plan still in place: %v", err)
	}
}

// TestShedLease pins overload shedding: with the in-flight lease bound
// saturated, a lease request is refused with 429 + Retry-After, the
// client classifies the refusal retryable with the hint attached, and
// the path clears once the bound frees up. Renews and submits are never
// shed (their routes are unwrapped), so sheds can only delay work.
func TestShedLease(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{MaxInflightLeases: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the bound as an in-flight lease call would.
	svc.inflightLeases.Add(1)

	_, resp := postLease(t, LoopbackClient(svc), LeaseRequest{Protocol: ProtocolVersion, Worker: "w"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated lease answered %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("shed Retry-After = %q, want \"1\"", got)
	}

	_, err = loopbackAPI(svc).Lease(context.Background(), "", LeaseRequest{Worker: "w"})
	if err == nil {
		t.Fatal("lease succeeded past a saturated bound")
	}
	if !Retryable(err) {
		t.Fatalf("shed not classified retryable: %v", err)
	}
	if hint := RetryAfterHint(err); hint != time.Second {
		t.Fatalf("RetryAfterHint = %v, want 1s", hint)
	}

	svc.inflightLeases.Add(-1)
	if _, err := loopbackAPI(svc).Lease(context.Background(), "", LeaseRequest{Worker: "w"}); err != nil {
		t.Fatalf("lease still refused after the bound freed: %v", err)
	}
}

// TestWorkerRetries429 pins the worker side of shedding: a coordinator
// that sheds the first lease attempts does not kill the fleet — the
// worker backs off and the sweep completes.
func TestWorkerRetries429(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	coord := newJobService(t, plan, CoordinatorConfig{})
	var calls atomic.Int32
	shedding := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/leases") && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		coord.ServeHTTP(w, r)
	})
	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(shedding), ID: "shed-w", Poll: time.Millisecond, Retries: 10, ExitOnIdle: true}
	if n, err := w.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("worker under shedding: (%d, %v), want (2, nil)", n, err)
	}
	waitJob(t, context.Background(), coord, plan)
}

// cutEventsOnce passes requests through untouched except the first
// /events response, whose body it cuts after the first SSE frame —
// simulating a connection dropped mid-stream.
type cutEventsOnce struct {
	base http.RoundTripper
	cut  atomic.Bool
}

func (c *cutEventsOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/events") || c.cut.Swap(true) {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	end := bytes.Index(body, []byte("\n\n")) + 2
	resp.Body = io.NopCloser(bytes.NewReader(body[:end]))
	resp.ContentLength = int64(end)
	return resp, nil
}

// TestFollowEventsReconnect pins the watch fix: a stream dropped after
// the first shard frame is re-subscribed, the replayed frames are
// deduplicated by shard index, and the callback sees every shard exactly
// once plus one completion — no dead watch, no double counting.
func TestFollowEventsReconnect(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	created, err := loopbackAPI(svc).CreateSweep(context.Background(), SweepRequest{Spec: quickSpec(t), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(svc), Poll: time.Millisecond, ExitOnIdle: true}
	if n, err := w.Run(context.Background()); err != nil || n != 2 {
		t.Fatalf("worker: (%d, %v), want (2, nil)", n, err)
	}

	cutting := &cutEventsOnce{base: LoopbackClient(svc).Transport}
	cl := NewClient("http://coordinator", &http.Client{Transport: cutting})
	shards := map[string]int{}
	completes := 0
	retries := 0
	opt := FollowOptions{
		Backoff: time.Millisecond,
		OnRetry: func(err error, wait time.Duration) {
			retries++
			if !errors.Is(err, errStreamEnded) {
				t.Errorf("reconnect for unexpected error: %v", err)
			}
		},
	}
	err = cl.FollowEvents(context.Background(), created.Job.ID, opt, func(ev SweepEvent) error {
		switch ev.Type {
		case EventShard:
			shards[ev.ID]++
		case EventComplete:
			completes++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 {
		t.Fatalf("FollowEvents reconnected %d times, want exactly 1", retries)
	}
	if len(shards) != 2 || shards["1"] != 1 || shards["2"] != 1 || completes != 1 {
		t.Fatalf("callback saw shards %v and %d completions, want each shard once and one completion", shards, completes)
	}
}

// TestClientDecodeErrorRetryable: a response truncated mid-JSON is a cut
// wire, not a verdict — it must classify as a retryable transport error.
func TestClientDecodeErrorRetryable(t *testing.T) {
	t.Parallel()

	truncating := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"protocol": 1, "stat`)
	})
	_, err := NewClient("http://coordinator", LoopbackClient(truncating)).
		Lease(context.Background(), "", LeaseRequest{Worker: "w"})
	if err == nil {
		t.Fatal("lease decoded a truncated response")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("truncated response classified as %T, want *TransportError: %v", err, err)
	}
	if !Retryable(err) {
		t.Fatalf("truncated response not retryable: %v", err)
	}
}

// TestRetryBackoffShape pins the worker backoff: jittered waits double
// from the poll base up to the cap, stay within [d/2, d), honor a
// Retry-After floor, and reset cleanly.
func TestRetryBackoffShape(t *testing.T) {
	t.Parallel()

	w := &Worker{ID: "backoff-shape"}
	base := 10 * time.Millisecond
	b := w.newBackoff(base)
	cap := 16 * base
	for i := 0; i < 8; i++ {
		d := min(base<<i, cap)
		wait := b.next(0)
		if wait < d/2 || wait >= d {
			t.Fatalf("attempt %d: wait %v outside [%v, %v)", i, wait, d/2, d)
		}
	}
	if wait := b.next(time.Second); wait != time.Second {
		t.Fatalf("Retry-After floor ignored: wait %v, want 1s", wait)
	}
	b.reset()
	if wait := b.next(0); wait < base/2 || wait >= base {
		t.Fatalf("after reset: wait %v outside [%v, %v)", wait, base/2, base)
	}
}
