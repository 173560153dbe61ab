package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/scenario"
)

const (
	// fleetPoll is the workers' wait between lease attempts while every
	// open shard is leased to another worker.
	fleetPoll = 5 * time.Millisecond
	// fleetRepTimeout bounds one fleet repetition.
	fleetRepTimeout = 60 * time.Second
	// spanHeader carries the client span ID to the coordinator, so its
	// service spans nest under the client's round trip.
	spanHeader = "X-Perfbench-Span"
)

// fleetWL submits a family sample to an in-process dist service over a
// 127.0.0.1 socket, runs nproc workers at Parallel 1 against it, and
// watches the job's events into a merged report — the `goalsweep watch`
// path. Each repetition gets a fresh coordinator behind the same
// listener: a resubmitted sweep would otherwise be answered from the
// finished job.
type fleetWL struct {
	spec             *scenario.Spec
	m                *scenario.Matrix
	sel              []int64
	base, sampleSeed uint64
	ref              []byte

	ln        net.Listener
	srv       *http.Server
	served    chan struct{}
	url       string
	transport *http.Transport
	current   atomic.Pointer[http.Handler] // this repetition's coordinator

	last []*scenario.ShardResult // the last repetition's envelopes
}

func setupFleet(cfg config) (workload, error) {
	spec, err := scenario.BuiltinSpec("family")
	if err != nil {
		return nil, err
	}
	f := &fleetWL{spec: spec, base: deriveSeed(cfg.seed, 2), sampleSeed: deriveSeed(cfg.seed, 3)}
	spec.BaseSeed = f.base
	if f.m, err = scenario.NewMatrix(spec); err != nil {
		return nil, err
	}
	f.sel = f.m.Sample(fleetSample, f.sampleSeed)
	if f.ref, err = reference(f.m, f.sel); err != nil {
		return nil, err
	}
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.url = "http://" + f.ln.Addr().String()
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := f.current.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "no coordinator", http.StatusServiceUnavailable)
	})}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		f.srv.Serve(f.ln)
	}()
	f.transport = &http.Transport{MaxIdleConnsPerHost: 4 * nproc()}
	return f, nil
}

func (f *fleetWL) close() {
	f.srv.Close()
	<-f.served
	f.transport.CloseIdleConnections()
}

// fleetAcc gathers the traced repetitions' coordinator and client
// figures.
type fleetAcc struct {
	wall, busy, compute, chunks float64 // seconds
	shardMs                     []float64
	calls, failed               []float64 // per repetition
	retries, polls              []float64
	frames, eventBytes          []float64
}

// route names a coordinator endpoint for spans and statistics.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/sweeps" && r.Method == http.MethodPost:
		return "create"
	case strings.HasSuffix(p, "/leases"):
		return "lease"
	case strings.HasSuffix(p, "/renew"):
		return "renew"
	case strings.HasSuffix(p, "/result"):
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	}
	return "other"
}

// timedHandler wraps the coordinator: it records a service span per
// request, the handler time spent outside event streams, and each
// shard's lease-grant to accepted-submit latency.
type timedHandler struct {
	next http.Handler
	tr   *tracer

	mu      sync.Mutex
	granted map[string]time.Time
	shardMs []float64
	busy    time.Duration
}

// recorder captures a response's status and, when asked, its body.
type recorder struct {
	http.ResponseWriter
	code int
	body *bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.body != nil {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := route(r)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	sp := h.tr.begin("dist.serve."+rt, parent)
	if rt == "events" {
		// The stream lives as long as the job: not service time, and
		// its writer must stay a Flusher.
		h.next.ServeHTTP(w, r)
		sp.end()
		return
	}
	rec := &recorder{ResponseWriter: w, code: http.StatusOK}
	if rt == "lease" {
		rec.body = &bytes.Buffer{}
	}
	h.next.ServeHTTP(rec, r)
	d := sp.end()
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.busy += d
	if rec.code != http.StatusOK {
		return
	}
	switch rt {
	case "lease":
		var lr dist.LeaseResponse
		if json.Unmarshal(rec.body.Bytes(), &lr) == nil && lr.Status == dist.StatusLease {
			h.granted[lr.LeaseID] = now
		}
	case "submit":
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/leases/"), "/result")
		if t, ok := h.granted[id]; ok {
			h.shardMs = append(h.shardMs, float64(now.Sub(t))/1e6)
			delete(h.granted, id)
		}
	}
}

// clientTransport counts a client's HTTP calls and failures (transport
// errors and non-2xx answers); when traced it also records a round-trip
// span per call and passes its ID to the coordinator.
type clientTransport struct {
	base          http.RoundTripper
	tr            *tracer
	parent        int64
	calls, failed *atomic.Int64
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var sp active
	if t.tr != nil {
		sp = t.tr.begin("dist.rtt."+route(req), t.parent)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := t.base.RoundTrip(req)
	sp.end()
	t.calls.Add(1)
	if err != nil || resp.StatusCode/100 != 2 {
		t.failed.Add(1)
	}
	return resp, err
}

func (f *fleetWL) rep(env *repEnv) (sample, error) {
	coord, err := dist.NewService(dist.CoordinatorConfig{})
	if err != nil {
		return sample{}, err
	}
	var h http.Handler = coord
	var th *timedHandler
	if env.tr != nil {
		th = &timedHandler{next: coord, tr: env.tr, granted: make(map[string]time.Time)}
		h = th
	}
	f.current.Store(&h)
	var calls, failed atomic.Int64
	client := func(parent int64) *http.Client {
		return &http.Client{Transport: &clientTransport{base: f.transport, tr: env.tr, parent: parent, calls: &calls, failed: &failed}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), fleetRepTimeout)
	defer cancel()
	retries0 := transportRetry.Value() + eventReconnect.Value()
	polls0 := pollWaits.Value()
	compute0, chunks0 := computeSeconds.Snapshot().Sum, chunkSeconds.Snapshot().Sum

	clk := startClock()
	resp, err := dist.NewClient(f.url, client(env.root)).CreateSweep(ctx, dist.SweepRequest{
		Protocol:   dist.ProtocolVersion,
		Spec:       f.spec,
		Shards:     fleetShards,
		SampleN:    len(f.sel),
		SampleSeed: f.sampleSeed,
	})
	if err != nil {
		clk.stop(env.ops)
		return sample{}, fmt.Errorf("create sweep: %w", err)
	}
	job := resp.Job.ID
	accepted0, dups0 := submitsOK.With(job).Value(), submitsDup.With(job).Value()

	// Closed loop: each worker leases again only after it submits.
	workers := nproc()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		sp := env.tr.begin("dist.Worker.Run", env.root)
		w := &dist.Worker{
			Coordinator: f.url,
			Client:      client(sp.id),
			Parallel:    1,
			ID:          fmt.Sprintf("bench-%d", i),
			Job:         job,
			Poll:        fleetPoll,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.Run(ctx)
			sp.end()
		}(i)
	}

	watch := env.tr.begin("dist.watch", env.root)
	var envs []*scenario.ShardResult
	var frames, eventBytes int
	err = dist.NewClient(f.url, client(watch.id)).FollowEvents(ctx, job, dist.FollowOptions{}, func(ev dist.SweepEvent) error {
		if ev.Type != dist.EventShard {
			return nil
		}
		frames++
		eventBytes += len(ev.Data)
		sp := env.tr.begin("scenario.ReadShardResult", watch.id)
		sr, err := scenario.ReadShardResult(bytes.NewReader(ev.Data))
		sp.end()
		if err != nil {
			return err
		}
		envs = append(envs, sr)
		return nil
	})
	var stats []*scenario.Stats
	var sum *scenario.Summary
	if err == nil {
		sp := env.tr.begin("scenario.MergeShards", watch.id)
		stats, sum, err = scenario.MergeShards(envs)
		sp.end()
	}
	watch.end()
	if err != nil {
		cancel()
		wg.Wait()
		clk.stop(env.ops)
		return sample{}, fmt.Errorf("watch job %s: %w", job, err)
	}
	b := renderChecked(env, f.m.Spec().Name, stats, sum, f.ref, "fleet report")
	s := clk.stop(env.ops)
	s.cells, s.digest = int64(sum.Scenarios), sha256.Sum256(b)
	f.last = envs

	wg.Wait()
	for i, err := range errs {
		env.ops.check(err == nil, fmt.Sprintf("worker %d ends cleanly (%v)", i, err))
	}
	var done bool
	for _, js := range coord.Jobs() {
		done = done || (js.ID == job && js.Complete && js.Done == fleetShards)
	}
	accepted, dups := submitsOK.With(job).Value()-accepted0, submitsDup.With(job).Value()-dups0
	env.ops.check(done && frames == fleetShards && accepted == fleetShards && dups == 0,
		fmt.Sprintf("job completes with every shard accepted exactly once (%d frames, %d accepted, %d duplicates of %d shards)",
			frames, accepted, dups, fleetShards))
	env.ops.attempted += calls.Load()
	env.ops.failed += failed.Load()
	if n := failed.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d HTTP calls failed\n", n)
	}

	if env.acc != nil {
		fa := &env.acc.fleet
		th.mu.Lock()
		fa.busy += th.busy.Seconds()
		fa.shardMs = append(fa.shardMs, th.shardMs...)
		th.mu.Unlock()
		fa.wall += s.wall.Seconds()
		fa.compute += computeSeconds.Snapshot().Sum - compute0
		fa.chunks += chunkSeconds.Snapshot().Sum - chunks0
		fa.calls = append(fa.calls, float64(calls.Load()))
		fa.failed = append(fa.failed, float64(failed.Load()))
		fa.retries = append(fa.retries, float64(transportRetry.Value()+eventReconnect.Value()-retries0))
		fa.polls = append(fa.polls, float64(pollWaits.Value()-polls0))
		fa.frames = append(fa.frames, float64(frames))
		fa.eventBytes = append(fa.eventBytes, float64(eventBytes))
	}
	return s, nil
}

func (f *fleetWL) layers(tr *tracer, acc *accum, o *ops, out map[string]float64) error {
	fa := &acc.fleet
	if fa.wall == 0 {
		return errors.New("fleet: no traced repetition")
	}
	p := func(name string, q float64) float64 { return quantile(tr.durations(name), q) }
	out["dist.lease_ms.p50"] = p("dist.serve.lease", 0.5)
	out["dist.lease_ms.p90"] = p("dist.serve.lease", 0.9)
	out["dist.submit_ms.p50"] = p("dist.serve.submit", 0.5)
	out["dist.submit_ms.p90"] = p("dist.serve.submit", 0.9)
	out["dist.lease_rtt_ms.p50"] = p("dist.rtt.lease", 0.5)
	out["dist.submit_rtt_ms.p50"] = p("dist.rtt.submit", 0.5)
	out["dist.shard_ms.p50"] = quantile(fa.shardMs, 0.5)
	out["dist.shard_ms.p90"] = quantile(fa.shardMs, 0.9)
	out["dist.coord_busy_frac"] = fa.busy / fa.wall
	out["dist.worker_busy_frac"] = fa.compute / (float64(nproc()) * fa.wall)
	out["dist.http_calls"] = median(fa.calls)
	out["dist.http_failed"] = median(fa.failed)
	out["dist.retries"] = median(fa.retries)
	out["dist.poll_waits"] = median(fa.polls)
	out["dist.events_frames"] = median(fa.frames)
	out["dist.events_kb"] = median(fa.eventBytes) / 1024
	out["scenario.envelope_kb"] = median(fa.eventBytes) / median(fa.frames) / 1024
	out["scenario.shard_read_ms"] = p("scenario.ReadShardResult", 0.5)
	out["scenario.merge_ms"] = p("scenario.MergeShards", 0.5)
	if fa.compute > 0 {
		out["scenario.sweep_outside_engine_frac"] = 1 - fa.chunks/fa.compute
	}

	// Direct calls: envelope encoding, the sample and the fingerprint
	// every lease recomputes.
	var writes, prints []float64
	for _, sr := range f.last {
		var b bytes.Buffer
		t0 := time.Now()
		if err := sr.Write(&b); err != nil {
			return err
		}
		writes = append(writes, float64(time.Since(t0))/1e6)
	}
	seeds, window, base := scenario.SweepConfig{}.Effective(f.m.Spec())
	version := scenario.Builtin().Version()
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		scenario.Fingerprint(f.spec, version, seeds, window, base, len(f.sel), f.sampleSeed)
		prints = append(prints, float64(time.Since(t0))/1e6)
	}
	out["scenario.shard_write_ms"] = median(writes)
	out["scenario.fingerprint_ms"] = median(prints)
	if err := scenarioProbe(f.m, f.sel, out); err != nil {
		return err
	}
	return systemProbe(f.m, f.sel, out)
}
