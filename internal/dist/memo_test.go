package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestWorkerMemoAcrossJobs: one worker pulls fair-share across two jobs
// with different specs — a flat one and a sampled composed one — so
// consecutive leases alternate plans and the worker's plan memo must be
// invalidated on every switch. Both merged reports must be byte-identical
// to fresh serial runs.
func TestWorkerMemoAcrossJobs(t *testing.T) {
	t.Parallel()

	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	api := loopbackAPI(svc)
	ctx := context.Background()
	reg := scenario.Builtin().Version()
	planA := builtinPlan(t, "quick", 3)
	adv, err := scenario.BuiltinSpec("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	planB, err := NewPlan(adv, reg, scenario.SweepConfig{}, 3, 18, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range []Plan{planA, planB} {
		created, err := api.CreateSweep(ctx, SweepRequest{Spec: p.Spec, Shards: p.Shards,
			SampleN: p.SampleN, SampleSeed: p.SampleSeed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, created.Job.ID)
	}

	w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(svc),
		ID: "solo", Poll: time.Millisecond, ExitOnIdle: true}
	n, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("worker submitted %d shards, want 6", n)
	}
	for i, p := range []Plan{planA, planB} {
		stats, sum, err := svc.JobMerged(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := marshalReport(t, stats, sum), serialReport(t, p); got != want {
			t.Fatalf("job %s merged report differs from a fresh serial run", ids[i])
		}
	}
}

// scriptedCoordinator answers a worker's leases from a fixed script and
// records every submitted envelope; once the script runs out it answers
// StatusDone.
type scriptedCoordinator struct {
	mu      sync.Mutex
	leases  []LeaseResponse
	submits []string // lease IDs of accepted submits
}

func (s *scriptedCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case r.URL.Path == "/v1/leases":
		resp := LeaseResponse{Protocol: ProtocolVersion, Status: StatusDone}
		if len(s.leases) > 0 {
			resp, s.leases = s.leases[0], s.leases[1:]
		}
		writeJSON(w, resp)
	case strings.HasSuffix(r.URL.Path, "/result"):
		if _, err := scenario.ReadShardResult(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		s.submits = append(s.submits, strings.Split(r.URL.Path, "/")[3])
		writeJSON(w, SubmitResponse{Accepted: true})
	default:
		http.NotFound(w, r)
	}
}

// clonePlan deep-copies a plan through its wire form, as a lease decode
// would.
func clonePlan(t *testing.T, p Plan) Plan {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var out Plan
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// cacheEntries counts the files under a result-cache directory.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestWorkerMemoRefusesAlteredPlan: a worker that already ran a shard of
// plan A, and so holds A in its memo, is then leased a plan that carries
// A's fingerprint string but differs in content. The memo must not trust
// the string: the worker re-verifies, refuses with the version-skew
// error, and executes no trial of the altered plan — its shared cache
// gains no entry and nothing is submitted.
func TestWorkerMemoRefusesAlteredPlan(t *testing.T) {
	t.Parallel()

	planA := builtinPlan(t, "quick", 2)
	for _, tc := range []struct {
		name  string
		alter func(p *Plan)
	}{
		{"spec value", func(p *Plan) { p.Spec.Axes[3].Values[1] = "0.3" }},
		{"seeds", func(p *Plan) { p.Seeds++ }},
		{"sample", func(p *Plan) { p.SampleN, p.SampleSeed = 4, 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			altered := clonePlan(t, planA)
			tc.alter(&altered)
			first := clonePlan(t, planA)
			fake := &scriptedCoordinator{leases: []LeaseResponse{
				{Protocol: ProtocolVersion, Status: StatusLease, LeaseID: "lease-1",
					Shard: scenario.Shard{Index: 1, Count: 2}, Plan: &first},
				{Protocol: ProtocolVersion, Status: StatusLease, LeaseID: "lease-2",
					Shard: scenario.Shard{Index: 2, Count: 2}, Plan: &altered},
			}}
			dir := t.TempDir()
			cache, err := scenario.OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Shard 1 of A runs and is submitted; the cache then holds
			// exactly its scenarios.
			w := &Worker{Coordinator: "http://coordinator", Client: LoopbackClient(fake),
				ID: "memo", Poll: time.Millisecond, Cache: cache}
			lease, err := w.lease(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sr, err := w.runShard(lease)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.submit(context.Background(), lease.LeaseID, sr, 1, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			before := cacheEntries(t, dir)
			if before != len(sr.Scenarios) {
				t.Fatalf("cache holds %d entries after shard 1, want %d", before, len(sr.Scenarios))
			}

			n, err := w.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), "version skew") {
				t.Fatalf("altered plan with A's fingerprint accepted: n=%d err=%v", n, err)
			}
			if n != 0 {
				t.Fatalf("worker submitted %d shards of the altered plan", n)
			}
			if got := cacheEntries(t, dir); got != before {
				t.Fatalf("cache grew from %d to %d entries: the altered plan executed trials", before, got)
			}
			if fmt.Sprint(fake.submits) != "[lease-1]" {
				t.Fatalf("submits = %v, want only lease-1", fake.submits)
			}
		})
	}
}

// TestSubmitBodyEncodingInvariant: the coordinator decodes and validates
// a submitted envelope in full whatever its whitespace, so an indented
// body (ShardResult.Write, the pre-compact wire form) and a compact one
// (json.Marshal, what Client.SubmitResult sends) for the same shards
// yield identical SSE frames and identical merged bytes.
func TestSubmitBodyEncodingInvariant(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	w := &Worker{}
	var envelopes []*scenario.ShardResult
	for i := 1; i <= plan.Shards; i++ {
		p := clonePlan(t, plan)
		sr, err := w.runShard(&LeaseResponse{LeaseID: "probe", Shard: scenario.Shard{Index: i, Count: plan.Shards}, Plan: &p})
		if err != nil {
			t.Fatal(err)
		}
		envelopes = append(envelopes, sr)
	}

	encodings := map[string]func(sr *scenario.ShardResult) ([]byte, error){
		"indented": func(sr *scenario.ShardResult) ([]byte, error) {
			var buf bytes.Buffer
			err := sr.Write(&buf)
			return buf.Bytes(), err
		},
		"compact": func(sr *scenario.ShardResult) ([]byte, error) { return json.Marshal(sr) },
	}
	frames := map[string][]string{}
	merged := map[string]string{}
	for name, encode := range encodings {
		svc, err := NewService(CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		api := loopbackAPI(svc)
		ctx := context.Background()
		created, err := api.CreateSweep(ctx, SweepRequest{Spec: plan.Spec, Shards: plan.Shards})
		if err != nil {
			t.Fatal(err)
		}
		for range envelopes {
			lease, err := api.Lease(ctx, "", LeaseRequest{Worker: name})
			if err != nil {
				t.Fatal(err)
			}
			body, err := encode(envelopes[lease.Shard.Index-1])
			if err != nil {
				t.Fatal(err)
			}
			var ack SubmitResponse
			path := "/v1/leases/" + lease.LeaseID + "/result"
			if err := api.do(ctx, http.MethodPost, path, bytes.NewReader(body), &ack); err != nil {
				t.Fatalf("%s body refused: %v", name, err)
			}
			if !ack.Accepted {
				t.Fatalf("%s body not accepted", name)
			}
		}
		err = api.Events(ctx, created.Job.ID, func(ev SweepEvent) error {
			frames[name] = append(frames[name], ev.Type+" "+ev.ID+" "+string(ev.Data))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, sum, err := svc.JobMerged(created.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		merged[name] = marshalReport(t, stats, sum)
	}
	if len(frames["compact"]) != plan.Shards+1 {
		t.Fatalf("compact stream carried %d frames, want %d", len(frames["compact"]), plan.Shards+1)
	}
	if fmt.Sprint(frames["indented"]) != fmt.Sprint(frames["compact"]) {
		t.Fatal("SSE frames differ between indented and compact submit bodies")
	}
	if merged["indented"] != merged["compact"] || merged["compact"] != serialReport(t, plan) {
		t.Fatal("merged bytes differ between indented and compact submit bodies, or from the serial run")
	}
}
