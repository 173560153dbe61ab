package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/scenario"
	"repro/internal/system"
)

// Workload sizes. They keep one repetition under two seconds on a 2-CPU
// host, so one run takes enough repetitions for a steady median.
const (
	engineSeeds = 8    // trials per scenario of the 288-scenario default matrix
	fleetSample = 5000 // family scenarios per fleet sweep
	fleetShards = 64   // shard count of the fleet job (~78 scenarios a shard)
)

// workload is one named benchmark input, set up once and repeated.
type workload interface {
	// rep runs one repetition: starts the clock at the first library
	// call, checks the output, and stops the clock with the checked
	// report bytes in hand.
	rep(env *repEnv) (sample, error)
	// layers computes the per-layer metrics after a traced run.
	// Output checks the probes make are booked in o.
	layers(tr *tracer, acc *accum, o *ops, out map[string]float64) error
	close()
}

type setupFunc func(cfg config) (workload, error)

var workloads = map[string]setupFunc{
	"engine": setupEngine,
	"fleet":  setupFleet,
}

// repEnv is what one repetition needs besides its workload: the shared
// operation tally and, for traced repetitions, the tracer and the
// per-layer accumulators (both nil otherwise).
type repEnv struct {
	ops  *ops
	run  string
	tr   *tracer
	acc  *accum
	root int64 // span ID of the repetition's root span
}

// ops tallies operations — trials, HTTP calls and output checks — and
// the ones that failed.
type ops struct{ attempted, failed int64 }

func (o *ops) check(ok bool, what string) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", what)
	}
}

// accum gathers per-layer figures across a run's traced repetitions.
type accum struct {
	chunkSec, sweepSec float64 // engine time inside sweeps, and sweep time
	fleet              fleetAcc
}

// sample is one repetition's measurements.
type sample struct {
	wall, cpu time.Duration
	cells     int64             // report cells delivered
	rounds    int64             // engine rounds executed (cache hits run none)
	peakHeap  float64           // bytes
	digest    [sha256.Size]byte // of the checked report, for the traced/untraced self-check
}

// doRep runs one repetition from a collected heap, inside its root span.
func doRep(w workload, env *repEnv) (sample, error) {
	runtime.GC()
	env.tr.setRun(env.run)
	root := env.tr.begin("bench.rep", 0)
	env.root = root.id
	s, err := w.rep(env)
	root.end()
	return s, err
}

// clock brackets the measured part of a repetition.
type clock struct {
	t0               time.Time
	cpu0             time.Duration
	heap             *heapSampler
	rounds0, trials0 int64
	errors0          int64
}

func startClock() *clock {
	return &clock{
		heap:    startHeapSampler(2 * time.Millisecond),
		rounds0: engineRounds.Value(),
		trials0: engineFinished.Value(),
		errors0: engineErrors.Value(),
		cpu0:    cpuTime(),
		t0:      time.Now(),
	}
}

// stop ends the measurement and books the trials run meanwhile as
// operations, failed ones as failures.
func (c *clock) stop(o *ops) sample {
	wall := time.Since(c.t0)
	cpu := cpuTime() - c.cpu0
	s := sample{wall: wall, cpu: cpu, peakHeap: c.heap.finish(), rounds: engineRounds.Value() - c.rounds0}
	o.attempted += engineFinished.Value() - c.trials0
	if n := engineErrors.Value() - c.errors0; n > 0 {
		o.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: %d trials failed\n", n)
	}
	return s
}

// deriveSeed derives one input's seed from the workload seed; each input
// has its own stream.
func deriveSeed(seed uint64, stream int) uint64 {
	if v := system.DeriveSeed(seed, stream); v != 0 {
		return v
	}
	return 1
}

// sweepStats runs one sweep and collects its aggregates.
func sweepStats(m *scenario.Matrix, sel []int64, cfg scenario.SweepConfig) ([]*scenario.Stats, *scenario.Summary, error) {
	var stats []*scenario.Stats
	cfg.OnStats = func(st *scenario.Stats) error {
		stats = append(stats, st)
		return nil
	}
	sum, err := m.Sweep(sel, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: %w", err)
	}
	return stats, sum, nil
}

// render encodes a report exactly as `goalsweep -json` does.
func render(spec string, stats []*scenario.Stats, sum *scenario.Summary) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	// Encoding plain structs into a buffer cannot fail.
	_ = enc.Encode(struct {
		Spec      string            `json:"spec"`
		Scenarios []*scenario.Stats `json:"scenarios"`
		Summary   *scenario.Summary `json:"summary"`
	}{spec, stats, sum})
	return b.Bytes()
}

// reference computes the serial reference report: a plain sweep of the
// selection at Parallel 1, no cache, no dist.
func reference(m *scenario.Matrix, sel []int64) ([]byte, error) {
	stats, sum, err := sweepStats(m, sel, scenario.SweepConfig{Parallel: 1})
	if err != nil {
		return nil, err
	}
	if sum.Errors != 0 {
		return nil, fmt.Errorf("reference sweep: %d of %d trials failed", sum.Errors, sum.Trials)
	}
	return render(m.Spec().Name, stats, sum), nil
}

// engineWL sweeps the default matrix locally, with no cache and no dist.
type engineWL struct {
	m   *scenario.Matrix
	ref []byte
}

func setupEngine(cfg config) (workload, error) {
	spec, err := scenario.BuiltinSpec("default")
	if err != nil {
		return nil, err
	}
	spec.Seeds = engineSeeds
	spec.BaseSeed = deriveSeed(cfg.seed, 1)
	m, err := scenario.NewMatrix(spec)
	if err != nil {
		return nil, err
	}
	ref, err := reference(m, nil)
	if err != nil {
		return nil, err
	}
	return &engineWL{m: m, ref: ref}, nil
}

func (e *engineWL) rep(env *repEnv) (sample, error) {
	clk := startClock()
	sp := env.tr.begin("scenario.Matrix.Sweep", env.root)
	chunks0 := chunkSeconds.Snapshot().Sum
	stats, sum, err := sweepStats(e.m, nil, scenario.SweepConfig{Parallel: nproc()})
	d := sp.end()
	if err != nil {
		clk.stop(env.ops)
		return sample{}, err
	}
	if env.acc != nil {
		env.acc.chunkSec += chunkSeconds.Snapshot().Sum - chunks0
		env.acc.sweepSec += d.Seconds()
	}
	b := renderChecked(env, e.m.Spec().Name, stats, sum, e.ref, "engine report")
	s := clk.stop(env.ops)
	s.cells, s.digest = int64(sum.Scenarios), sha256.Sum256(b)
	return s, nil
}

// renderChecked renders a report and checks it against the reference,
// inside spans.
func renderChecked(env *repEnv, spec string, stats []*scenario.Stats, sum *scenario.Summary, ref []byte, what string) []byte {
	sp := env.tr.begin("bench.render", env.root)
	b := render(spec, stats, sum)
	sp.end()
	sp = env.tr.begin("bench.check", env.root)
	env.ops.check(bytes.Equal(b, ref), what+" equals the serial reference")
	sp.end()
	return b
}

func (e *engineWL) layers(tr *tracer, acc *accum, o *ops, out map[string]float64) error {
	sweepLayers(acc, out)
	if err := cacheProbe(e.m, e.ref, o, out); err != nil {
		return err
	}
	if err := scenarioProbe(e.m, nil, out); err != nil {
		return err
	}
	return systemProbe(e.m, nil, out)
}

func (e *engineWL) close() {}

// sweepLayers reports the share of sweep time spent outside the engine.
func sweepLayers(acc *accum, out map[string]float64) {
	if acc.sweepSec > 0 {
		out["scenario.sweep_outside_engine_frac"] = 1 - acc.chunkSec/acc.sweepSec
	}
}

// cacheProbe exercises the result cache on the workload's matrix. A
// sweep into a fresh, empty store misses and stores every scenario; a
// second sweep hits every one and runs no trial; both reports must equal
// the reference. Then it times direct Cache.Put and Cache.Get calls for
// every aggregate in another fresh store and sizes the stored entries.
func cacheProbe(m *scenario.Matrix, ref []byte, o *ops, out map[string]float64) error {
	dir, err := os.MkdirTemp(workdir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := scenario.OpenCache(dir)
	if err != nil {
		return err
	}
	n := int(m.Size())
	var stats []*scenario.Stats
	hits, misses := 0, 0
	for _, phase := range []string{"cold", "warm"} {
		st, sum, err := sweepStats(m, nil, scenario.SweepConfig{Parallel: nproc(), Cache: store})
		if err != nil {
			return err
		}
		stats, hits, misses = st, hits+sum.CacheHits, misses+sum.CacheMisses
		o.attempted += int64(sum.ExecutedTrials)
		o.check(bytes.Equal(render(m.Spec().Name, st, sum), ref), phase+" cached report equals the serial reference")
		if phase == "cold" {
			o.check(sum.CacheMisses == n && sum.CacheWriteError == nil,
				fmt.Sprintf("cold sweep misses all %d scenarios and stores them (misses %d, write error %v)",
					n, sum.CacheMisses, sum.CacheWriteError))
		} else {
			o.check(sum.CacheHits == n && sum.ExecutedTrials == 0,
				fmt.Sprintf("warm sweep hits all %d scenarios and runs no trial (hits %d, trials %d)",
					n, sum.CacheHits, sum.ExecutedTrials))
		}
	}
	out["scenario.cache_hit_ratio"] = float64(hits) / float64(hits+misses)

	dir, err = os.MkdirTemp(workdir, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if store, err = scenario.OpenCache(dir); err != nil {
		return err
	}
	seeds, window, base := scenario.SweepConfig{}.Effective(m.Spec())
	version := scenario.Builtin().Version()
	key := func(st *scenario.Stats) scenario.Key {
		return scenario.Key{ScenarioID: st.ID, Registry: version, BaseSeed: base, Seeds: seeds, Window: window}
	}
	var puts, gets []float64
	for _, st := range stats {
		t0 := time.Now()
		err := store.Put(key(st), st)
		puts = append(puts, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
	}
	for _, st := range stats {
		t0 := time.Now()
		_, ok := store.Get(key(st))
		gets = append(gets, float64(time.Since(t0))/1e3)
		if !ok {
			return fmt.Errorf("cache probe: stored entry %s missing", st.ID)
		}
	}
	var size int64
	files := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		files++
		return nil
	})
	if err != nil {
		return err
	}
	out["scenario.cache_put_us"] = median(puts)
	out["scenario.cache_get_us"] = median(gets)
	if files > 0 {
		out["scenario.cache_entry_kb"] = float64(size) / float64(files) / 1024
	}
	return nil
}
