// Command goalsweep evaluates scenario matrices: declarative cross-products
// of (goal × world params × user strategy × server transform stack ×
// horizon) swept through the batch execution engine with online
// per-scenario aggregation.
//
// Usage:
//
//	goalsweep -builtin default                   # sweep the stock matrix
//	goalsweep -spec grid.json -parallel 4        # sweep a JSON spec
//	goalsweep -builtin default -sample 100       # deterministic random subset
//	goalsweep -filter goal=transfer -filter noise=0,0.3
//	goalsweep -builtin default -json -out sweep.json
//	goalsweep -builtin default -csv
//	goalsweep -builtin quick -bench BENCH_sweep.json
//	goalsweep -builtin default -list             # print scenarios, don't run
//	goalsweep -builtin default -cache DIR        # skip already-stored scenarios
//	goalsweep -builtin default -shard 2/3 -json -out shard-2.json
//	goalsweep merge -json -out full.json shard-*.json
//	goalsweep benchcmp old.json new.json         # throughput regression check
//	goalsweep -builtin default -fingerprint      # print the sweep fingerprint
//	goalsweep serve -builtin default -shards 3 -listen :8077 -json -out report.json
//	goalsweep serve -service -state DIR -listen :8077
//	goalsweep work -coordinator http://host:8077 -cache DIR
//	goalsweep submit -coordinator http://host:8077 -builtin default -shards auto
//	goalsweep watch -coordinator http://host:8077 -json -out report.json JOB
//
// Sweeps are deterministic per spec and seed: -parallel bounds the worker
// pool without changing a byte of -json/-csv output, and every scenario
// carries a stable content-derived ID, so sampled sweeps report exactly
// what a full enumeration would report for the same scenarios. -bench
// additionally writes a small throughput artifact (the only output with
// timings in it).
//
// The same determinism makes sweeps distributed-by-construction: -shard
// i/n runs the i-th of n contiguous partitions of the selection (with
// -json it emits a mergeable envelope), and "goalsweep merge" recombines
// a complete set of envelopes into output byte-identical to the unsharded
// run. "goalsweep serve"/"goalsweep work" automate the same split as a
// coordinator/worker pool (see repro/internal/dist): the coordinator
// leases shards over HTTP with a timeout — crashed workers' shards are
// re-issued — validates every submitted envelope against the sweep
// fingerprint, and writes the merged report once the last shard lands.
// "goalsweep serve -service" runs the same coordinator as a long-lived
// multi-tenant job queue instead: "goalsweep submit" enqueues sweeps
// over the /v1 API (printing the job ID), job-agnostic workers drain the
// queue fair-share, and "goalsweep watch" streams a job's shard
// envelopes over SSE and renders the merged report — still
// byte-identical to a local run of the same spec. With -state DIR the
// service persists plans and envelopes and resumes incomplete jobs
// across restarts without re-executing finished shards.
// -cache DIR keeps a content-addressed store of per-scenario
// aggregates keyed by scenario ID, base seed, trials and window: hit
// scenarios are emitted without executing a single trial, again
// byte-identical; corrupted or foreign-version entries fall back to
// re-execution.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/scenario"
)

func main() {
	// SIGINT/SIGTERM cancel the context instead of killing the process,
	// so a long-lived `serve -service` shuts its listener down cleanly
	// (and a second signal force-kills via the default handler).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "goalsweep:", err)
		os.Exit(1)
	}
}

// filterFlags collects repeated -filter axis=v1,v2 arguments.
type filterFlags []string

func (f *filterFlags) String() string { return strings.Join(*f, "; ") }
func (f *filterFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// sweepFlags are the flags that choose and shape a sweep, shared by
// every verb that plans one: the spec (-spec, -builtin, -filter), the
// selection (-sample, -sampleseed) and the execution overrides (-seeds,
// -window, -baseseed).
type sweepFlags struct {
	specPath, builtin string
	filters           filterFlags
	sample            int
	sampleSeed        uint64
	seeds, window     int
	baseSeed          uint64
}

// addSweepFlags registers the sweep flags on fs; builtin is -builtin's
// default.
func addSweepFlags(fs *flag.FlagSet, builtin string) *sweepFlags {
	sf := &sweepFlags{}
	fs.StringVar(&sf.specPath, "spec", "", "JSON scenario spec file")
	// The -builtin help is built from the spec names themselves so it
	// cannot drift from them.
	fs.StringVar(&sf.builtin, "builtin", builtin,
		"built-in spec name ("+strings.Join(scenario.BuiltinSpecNames(), ", ")+"); ignored when -spec is set")
	fs.Var(&sf.filters, "filter", "restrict an axis: axis=v1,v2 (repeatable)")
	fs.IntVar(&sf.sample, "sample", 0, "sweep only a deterministic random subset of this many scenarios (0 = all)")
	fs.Uint64Var(&sf.sampleSeed, "sampleseed", 1, "seed for -sample subset selection")
	fs.IntVar(&sf.seeds, "seeds", 0, "override the spec's trials per scenario (0 = spec value)")
	fs.IntVar(&sf.window, "window", 0, "override the spec's convergence window (0 = spec value)")
	fs.Uint64Var(&sf.baseSeed, "baseseed", 0, "override the spec's base seed (0 = spec value)")
	return sf
}

// spec loads the chosen spec with the -filter restrictions applied.
func (sf *sweepFlags) spec() (*scenario.Spec, error) {
	spec, err := loadSpec(sf.specPath, sf.builtin)
	if err != nil {
		return nil, err
	}
	for _, f := range sf.filters {
		name, vals, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad -filter %q: want axis=v1,v2", f)
		}
		if err := spec.Restrict(name, strings.Split(vals, ",")...); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// config is the execution overrides as a SweepConfig.
func (sf *sweepFlags) config() scenario.SweepConfig {
	return scenario.SweepConfig{Seeds: sf.seeds, Window: sf.window, BaseSeed: sf.baseSeed}
}

// given reports whether a spec was chosen or narrowed, a sample asked
// for, or an execution override set.
func (sf *sweepFlags) given() bool {
	return sf.specPath != "" || sf.builtin != "" || len(sf.filters) > 0 || sf.sample != 0 ||
		sf.seeds != 0 || sf.window != 0 || sf.baseSeed != 0
}

// run is runCtx without cancellation — the signature most tests use.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	if len(args) > 0 {
		switch args[0] {
		case "merge":
			return runMerge(args[1:], stdout)
		case "benchcmp":
			return runBenchcmp(args[1:], stdout)
		case "serve":
			return runServe(ctx, args[1:], stdout, stderr)
		case "work":
			return runWork(ctx, args[1:], stdout, stderr)
		case "submit":
			return runSubmit(ctx, args[1:], stdout, stderr)
		case "watch":
			return runWatch(ctx, args[1:], stdout, stderr)
		case "chaostest":
			return runChaostest(ctx, args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("goalsweep", flag.ContinueOnError)
	var (
		parallel    = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS); does not affect results")
		chunk       = fs.Int("chunk", 256, "trials buffered per engine batch; does not affect results")
		trialBatch  = fs.Int("trialbatch", 1, "consecutive trials a worker claims per scheduling step; does not affect results")
		jsonOut     = fs.Bool("json", false, "emit per-scenario aggregates and the summary as JSON")
		csvOut      = fs.Bool("csv", false, "emit per-scenario aggregates as CSV")
		list        = fs.Bool("list", false, "list the selected scenarios without executing them")
		outPath     = fs.String("out", "", "write output to this file instead of stdout")
		benchPath   = fs.String("bench", "", "also write a throughput artifact (JSON with timings) to this file")
		shardSpec   = fs.String("shard", "", "run only shard i/n of the selection (1-based, e.g. 2/3); with -json, emits a mergeable shard envelope")
		cacheDir    = fs.String("cache", "", "content-addressed result cache directory; stored scenarios skip execution, byte-identically")
		fingerprint = fs.Bool("fingerprint", false, "print the sweep fingerprint (cache/merge identity) and exit without executing")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (pprof format)")
		memProfile  = fs.String("memprofile", "", "write a heap profile, taken after the sweep completes, to this file (pprof format)")
	)
	sf := addSweepFlags(fs, "")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	if *chunk <= 0 {
		return fmt.Errorf("-chunk must be positive, got %d", *chunk)
	}
	if *trialBatch < 1 {
		return fmt.Errorf("-trialbatch must be at least 1, got %d", *trialBatch)
	}
	if *benchPath != "" && (*cacheDir != "" || *shardSpec != "") {
		// A warm cache would divide unexecuted rounds by near-zero
		// elapsed time, and a shard's throughput is not the sweep's;
		// either artifact would poison benchcmp comparisons.
		return fmt.Errorf("-bench measures fresh full-selection execution and cannot combine with -cache or -shard")
	}
	var shard scenario.Shard
	sharded := *shardSpec != ""
	if sharded {
		var err error
		if shard, err = scenario.ParseShard(*shardSpec); err != nil {
			return err
		}
	}

	spec, err := sf.spec()
	if err != nil {
		return err
	}
	m, err := scenario.NewMatrix(spec)
	if err != nil {
		return err
	}
	// A composed spec enumerates (and fingerprints) in canonical form;
	// adopt it so the report, envelope and fingerprint agree.
	spec = m.Spec()

	cfg := sf.config()
	cfg.Parallel = *parallel
	cfg.ChunkTrials = *chunk
	cfg.TrialBatch = *trialBatch
	effSeeds, effWindow, effBase := cfg.Effective(spec)
	// The CLI always binds through the stock registry.
	fp := scenario.Fingerprint(spec, scenario.Builtin().Version(), effSeeds, effWindow, effBase, sf.sample, sf.sampleSeed)

	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	// A close error (write-back failure on -out) must surface: CI cmp's
	// these artifacts byte for byte.
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()

	if *fingerprint {
		_, err := fmt.Fprintln(out, fp)
		return err
	}

	var indices []int64 // nil = the whole matrix
	if sf.sample > 0 {
		indices = m.Sample(sf.sample, sf.sampleSeed)
	}
	if sharded {
		indices = shard.Indices(m, indices)
	}
	selected := m.Size()
	if indices != nil {
		selected = int64(len(indices))
	}

	if *list {
		return listScenarios(out, m, indices)
	}

	if *cacheDir != "" {
		cache, err := scenario.OpenCache(*cacheDir)
		if err != nil {
			return err
		}
		cfg.Cache = cache
	}

	var stats []*scenario.Stats
	cfg.OnStats = func(st *scenario.Stats) error {
		stats = append(stats, st)
		return nil
	}
	// Both profile files are created before the sweep so a bad path
	// fails fast instead of discarding a completed run's results.
	var memProfileFile *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		memProfileFile = f
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		// Stopped explicitly right after the sweep so the profile covers
		// exactly the trial execution, not report rendering; the deferred
		// stop is a no-op then and only matters on error paths.
		defer pprof.StopCPUProfile()
	}
	// Allocation accounting for the -bench artifact: a MemStats snapshot
	// on either side of the sweep. Only taken when asked — ReadMemStats
	// stops the world.
	var memBefore runtime.MemStats
	if *benchPath != "" {
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	sum, err := m.Sweep(indices, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	var mallocs int64
	if *benchPath != "" {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		mallocs = int64(memAfter.Mallocs - memBefore.Mallocs)
	}
	if memProfileFile != nil {
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(memProfileFile); err != nil {
			return err
		}
	}

	if *cacheDir != "" {
		// Cache accounting goes to stderr so every report stream stays
		// byte-identical between cold and warm runs.
		fmt.Fprintf(stderr, "goalsweep: cache: %d hits, %d misses, %d trials executed\n",
			sum.CacheHits, sum.CacheMisses, sum.ExecutedTrials)
		if sum.CacheWriteError != nil {
			fmt.Fprintf(stderr, "goalsweep: warning: result cache disabled mid-sweep (results unaffected): %v\n",
				sum.CacheWriteError)
		}
	}
	if *benchPath != "" {
		perGoal, err := benchPerGoal(sf, spec, cfg)
		if err != nil {
			return err
		}
		if err := writeBench(*benchPath, sum, elapsed, *parallel, 1, mallocs, perGoal); err != nil {
			return err
		}
	}

	if *jsonOut && sharded {
		sr := &scenario.ShardResult{
			Version:     scenario.ShardFormatVersion,
			Fingerprint: fp,
			Spec:        spec,
			Shard:       shard,
			Scenarios:   stats,
			Summary:     sum,
		}
		err = sr.Write(out)
	} else {
		err = renderReport(out, *jsonOut, *csvOut, m, spec, sum, stats, selected)
	}
	if err != nil {
		return err
	}
	return trialFailures(sum, stats)
}

// openOut resolves -out: stdout, or a created file the caller closes.
func openOut(outPath string, stdout io.Writer) (io.Writer, func() error, error) {
	if outPath == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return nil, nil, fmt.Errorf("create %s: %w", outPath, err)
	}
	return f, f.Close, nil
}

// renderReport writes the aggregates in the selected format. m may be
// nil (merge mode); the table renderer then rebuilds the matrix from the
// spec for its size header.
func renderReport(out io.Writer, jsonOut, csvOut bool, m *scenario.Matrix,
	spec *scenario.Spec, sum *scenario.Summary, stats []*scenario.Stats, selected int64) error {
	switch {
	case jsonOut:
		return writeJSON(out, spec, sum, stats)
	case csvOut:
		return writeCSV(out, spec, stats)
	default:
		if m == nil {
			var err error
			if m, err = scenario.NewMatrix(spec); err != nil {
				return err
			}
		}
		return writeTable(out, m, spec, sum, stats, selected)
	}
}

// trialFailures is the exit contract shared by sweeps and merges:
// failing trials are data in the report, but a run that could not
// execute everything must not exit 0.
func trialFailures(sum *scenario.Summary, stats []*scenario.Stats) error {
	if sum.Errors == 0 {
		return nil
	}
	for _, st := range stats {
		if st.Errors > 0 {
			return fmt.Errorf("%d of %d trials failed (first: scenario %s: %s)",
				sum.Errors, sum.Trials, st.ID, st.FirstError)
		}
	}
	return nil
}

// runMerge recombines shard envelopes (goalsweep -shard i/n -json) into
// the unsharded sweep's report: goalsweep merge [-json|-csv] [-out F]
// shard1.json shard2.json ...
func runMerge(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("goalsweep merge", flag.ContinueOnError)
	var (
		jsonOut = fs.Bool("json", false, "emit the merged aggregates and summary as JSON")
		csvOut  = fs.Bool("csv", false, "emit the merged aggregates as CSV")
		outPath = fs.String("out", "", "write output to this file instead of stdout")
	)
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *csvOut {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("merge needs shard result files (goalsweep -shard i/n -json output)")
	}
	var shards []*scenario.ShardResult
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sr, err := scenario.ReadShardResult(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		// Cross-envelope mismatches are detected here, where the offending
		// input file can be named; MergeShards sees only envelopes.
		first := files[0]
		if i > 0 {
			if sr.Fingerprint != shards[0].Fingerprint {
				return fmt.Errorf("%s: shard %s fingerprint %s does not match %s from %s — shards come from different sweeps",
					path, sr.Shard, sr.Fingerprint, shards[0].Fingerprint, first)
			}
			if sr.Shard.Count != shards[0].Shard.Count {
				return fmt.Errorf("%s: shard %s mixed into the %d-way partition started by %s",
					path, sr.Shard, shards[0].Shard.Count, first)
			}
		}
		for j, prev := range shards {
			if prev.Shard.Index == sr.Shard.Index {
				return fmt.Errorf("%s: duplicate shard %s, already supplied by %s", path, sr.Shard, files[j])
			}
		}
		shards = append(shards, sr)
	}
	stats, sum, err := scenario.MergeShards(shards)
	if err != nil {
		return err
	}
	out, closeOut, err := openOut(*outPath, stdout)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeOut(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	if err := renderReport(out, *jsonOut, *csvOut, nil, shards[0].Spec, sum, stats, int64(len(stats))); err != nil {
		return err
	}
	return trialFailures(sum, stats)
}

// runBenchcmp compares two throughput artifacts (goalsweep -bench) and
// fails when the fresh one regresses beyond the tolerance: goalsweep
// benchcmp [-maxdrop F] baseline.json fresh.json
func runBenchcmp(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("goalsweep benchcmp", flag.ContinueOnError)
	maxDrop := fs.Float64("maxdrop", 0.5, "fail when roundsPerSec drops by more than this fraction of the baseline")
	maxAllocGrow := fs.Float64("maxallocgrow", 0.5, "fail when allocsPerRound grows by more than this fraction of the baseline (checked only when both artifacts carry allocation counts)")
	history := fs.String("history", "", "validate a bench-history.jsonl trajectory (every record parses, commits unique) instead of comparing two artifacts")
	fs.SetOutput(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if *history != "" {
		if len(files) != 0 {
			return fmt.Errorf("benchcmp -history takes no artifact arguments")
		}
		return checkBenchHistory(*history, stdout)
	}
	if len(files) != 2 {
		return fmt.Errorf("benchcmp needs exactly two artifacts: baseline.json fresh.json")
	}
	readBench := func(path string) (*harness.SweepBench, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var b harness.SweepBench
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	baseline, err := readBench(files[0])
	if err != nil {
		return err
	}
	fresh, err := readBench(files[1])
	if err != nil {
		return err
	}
	if baseline.Spec != fresh.Spec {
		return fmt.Errorf("artifacts cover different specs: %q vs %q", baseline.Spec, fresh.Spec)
	}
	if baseline.Scenarios != fresh.Scenarios || baseline.Trials != fresh.Trials {
		return fmt.Errorf("artifacts cover different workloads: %d scenarios/%d trials vs %d/%d — spec %q changed shape, refresh the baseline",
			baseline.Scenarios, baseline.Trials, fresh.Scenarios, fresh.Trials, baseline.Spec)
	}
	if baseline.RoundsPerSec <= 0 {
		return fmt.Errorf("%s has no roundsPerSec baseline", files[0])
	}
	if baseline.Parallel < 1 || fresh.Parallel < 1 {
		return fmt.Errorf("artifact without effective parallelism (parallel %d vs %d) — regenerate with current goalsweep",
			baseline.Parallel, fresh.Parallel)
	}
	// Artifacts from pools of different sizes are compared per worker,
	// so a wider host cannot mask a per-core regression (nor a narrower
	// one fake it). Same-size pools compare raw throughput.
	baseRate, freshRate := baseline.RoundsPerSec, fresh.RoundsPerSec
	unit := "roundsPerSec"
	if baseline.Parallel != fresh.Parallel {
		baseRate /= float64(baseline.Parallel)
		freshRate /= float64(fresh.Parallel)
		unit = "roundsPerSec/worker"
	}
	change := freshRate/baseRate - 1
	fmt.Fprintf(stdout, "spec %q: %s %.0f -> %.0f (%+.1f%%), trialsPerSec %.0f -> %.0f, parallel %d -> %d\n",
		baseline.Spec, unit, baseRate, freshRate, 100*change,
		baseline.TrialsPerSec, fresh.TrialsPerSec, baseline.Parallel, fresh.Parallel)
	// Allocation discipline line: allocs/round is host-independent, so
	// unlike the throughput check it is meaningful across machines. Only
	// present when both artifacts carry counts — artifacts predating
	// allocation accounting (and distributed ones) compare on rate alone.
	allocChange := 0.0
	allocChecked := baseline.AllocsPerRound > 0 && fresh.AllocsPerRound > 0
	if allocChecked {
		allocChange = fresh.AllocsPerRound/baseline.AllocsPerRound - 1
		fmt.Fprintf(stdout, "spec %q: allocsPerRound %.2f -> %.2f (%+.1f%%)\n",
			baseline.Spec, baseline.AllocsPerRound, fresh.AllocsPerRound, 100*allocChange)
	}
	// Throughput is judged first: when both regress, the rate collapse
	// is the headline, not the allocation growth that likely caused it.
	if drop := -change; drop > *maxDrop {
		return fmt.Errorf("%s regression: %.1f%% drop exceeds -maxdrop %.0f%%",
			unit, 100*drop, 100**maxDrop)
	}
	if allocChecked && allocChange > *maxAllocGrow {
		return fmt.Errorf("allocation regression: allocsPerRound grew %.1f%%, exceeds -maxallocgrow %.0f%%",
			100*allocChange, 100**maxAllocGrow)
	}
	return nil
}

// benchHistoryRecord is one line of CI's bench-history.jsonl: a bench
// artifact stamped with its commit and workflow run.
type benchHistoryRecord struct {
	harness.SweepBench
	Commit string `json:"commit"`
	Ref    string `json:"ref"`
	Run    string `json:"run"`
}

// checkBenchHistory is benchcmp's -history sanity mode: the trajectory
// file the dashboard charts is append-only and machine-written, so the
// invariants are structural — every line parses as a stamped bench
// artifact and no commit appears twice (a duplicate would mean CI
// double-appended and every chart would kink).
func checkBenchHistory(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	seen := make(map[string]int)
	var first, last *benchHistoryRecord
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec benchHistoryRecord
		dec := json.NewDecoder(strings.NewReader(text))
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("%s:%d: bad record: %v", path, line, err)
		}
		if rec.Commit == "" {
			return fmt.Errorf("%s:%d: record has no commit stamp", path, line)
		}
		if rec.Spec == "" {
			return fmt.Errorf("%s:%d: record has no spec", path, line)
		}
		if rec.RoundsPerSec <= 0 {
			return fmt.Errorf("%s:%d: record has no roundsPerSec", path, line)
		}
		if prev, dup := seen[rec.Commit]; dup {
			return fmt.Errorf("%s:%d: commit %s already recorded at line %d", path, line, rec.Commit, prev)
		}
		seen[rec.Commit] = line
		r := rec
		if first == nil {
			first = &r
		}
		last = &r
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%s: no bench history records", path)
	}
	fmt.Fprintf(stdout, "bench history OK: %d records, %d unique commits, spec %q, roundsPerSec %.0f -> %.0f\n",
		n, len(seen), last.Spec, first.RoundsPerSec, last.RoundsPerSec)
	return nil
}

// loadSpec reads -spec, or resolves -builtin (defaulting to "default").
func loadSpec(specPath, builtin string) (*scenario.Spec, error) {
	if specPath != "" {
		f, err := os.Open(specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return scenario.ReadSpec(f)
	}
	if builtin == "" {
		builtin = "default"
	}
	return scenario.BuiltinSpec(builtin)
}

func listScenarios(out io.Writer, m *scenario.Matrix, indices []int64) error {
	emit := func(sc *scenario.Scenario) error {
		_, err := fmt.Fprintln(out, sc.String())
		return err
	}
	if indices == nil {
		return m.Each(emit)
	}
	for _, i := range indices {
		if err := emit(m.At(i)); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(out io.Writer, spec *scenario.Spec, sum *scenario.Summary, stats []*scenario.Stats) error {
	type report struct {
		Spec      string            `json:"spec"`
		Scenarios []*scenario.Stats `json:"scenarios"`
		Summary   *scenario.Summary `json:"summary"`
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report{Spec: spec.Name, Scenarios: stats, Summary: sum})
}

// g formats a float in shortest round-trip form for CSV cells.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func writeCSV(out io.Writer, spec *scenario.Spec, stats []*scenario.Stats) error {
	w := csv.NewWriter(out)
	// Axis columns come from the union across blocks: scenarios of a
	// composed spec carry different axis sets, so cells are looked up by
	// name and an axis a scenario's block omits renders empty.
	axes := spec.AxesUnion()
	header := []string{"id"}
	for _, ax := range axes {
		header = append(header, ax.Name)
	}
	header = append(header,
		"trials", "errors", "successes", "successRate",
		"roundsMean", "roundsP50", "roundsP99", "roundsMax", "roundsStddev",
		"meanExecutedRounds", "msgsPerRound", "meanSwitches", "firstError")
	if err := w.Write(header); err != nil {
		return err
	}
	for _, st := range stats {
		row := []string{st.ID}
		for _, ax := range axes {
			v, _ := st.Axis(ax.Name)
			row = append(row, v)
		}
		row = append(row,
			strconv.Itoa(st.Trials), strconv.Itoa(st.Errors),
			strconv.Itoa(st.Successes), g(st.SuccessRate),
			g(st.Rounds.Mean), g(st.Rounds.P50), g(st.Rounds.P99),
			g(st.Rounds.Max), g(st.Rounds.Stddev),
			g(st.MeanExecutedRounds), g(st.MsgsPerRound), g(st.MeanSwitches),
			st.FirstError)
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// writeTable renders the human-readable report: one row per scenario with
// a column for every axis that actually varies, then the summary.
func writeTable(out io.Writer, m *scenario.Matrix, spec *scenario.Spec,
	sum *scenario.Summary, stats []*scenario.Stats, selected int64) error {
	var varying []string
	for _, ax := range spec.AxesUnion() {
		// An axis varies when it has several values, or when some block
		// omits it (those scenarios hold it at the default).
		if len(ax.Values) > 1 || !ax.Everywhere {
			varying = append(varying, ax.Name)
		}
	}
	tbl := &harness.Table{
		ID:    "SWEEP",
		Title: fmt.Sprintf("spec %q: %d of %d scenarios", spec.Name, selected, m.Size()),
		Columns: append(append([]string{"scenario"}, varying...),
			"trials", "ok", "mean", "p50", "p99", "msg/r", "switches"),
	}
	for _, st := range stats {
		row := []string{st.ID}
		for _, name := range varying {
			v, _ := st.Axis(name)
			row = append(row, v)
		}
		row = append(row,
			harness.I(st.Trials),
			harness.Percent(st.Successes, st.Trials),
			harness.F(st.Rounds.Mean),
			harness.F(st.Rounds.P50),
			harness.F(st.Rounds.P99),
			fmt.Sprintf("%.2f", st.MsgsPerRound),
			harness.F(st.MeanSwitches))
		tbl.AddRow(row...)
	}
	if err := tbl.Render(out); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "\nsummary: %d scenarios, %d trials, %d successes (%s), %d errors, %d rounds\n",
		sum.Scenarios, sum.Trials, sum.Successes,
		harness.Percent(sum.Successes, sum.Trials), sum.Errors, sum.TotalRounds)
	return err
}

// benchPerGoal measures each goal's slice of the sweep as its own timed
// sub-sweep over the goal's restriction of the spec — the per-goal
// rounds/s and allocs/round breakdown of the -bench artifact. The spec
// is re-resolved per goal because Restrict mutates it. Sampled
// selections are skipped (a goal restriction cannot reproduce a random
// subset), as are specs without at least two goal values (the breakdown
// would restate the aggregate).
func benchPerGoal(sf *sweepFlags, spec *scenario.Spec, cfg scenario.SweepConfig) ([]harness.GoalBench, error) {
	if sf.sample > 0 {
		return nil, nil
	}
	var goals []string
	for _, ax := range spec.AxesUnion() {
		if ax.Name == "goal" {
			goals = ax.Values
		}
	}
	if len(goals) < 2 {
		return nil, nil
	}
	out := make([]harness.GoalBench, 0, len(goals))
	for _, g := range goals {
		gspec, err := sf.spec()
		if err != nil {
			return nil, err
		}
		if err := gspec.Restrict("goal", g); err != nil {
			return nil, err
		}
		gm, err := scenario.NewMatrix(gspec)
		if err != nil {
			return nil, err
		}
		gcfg := cfg
		gcfg.OnStats = nil
		gcfg.Cache = nil
		var memBefore, memAfter runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		start := time.Now()
		gsum, err := gm.Sweep(nil, gcfg)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&memAfter)
		gb := harness.GoalBench{
			Goal:        g,
			Scenarios:   gsum.Scenarios,
			Trials:      gsum.Trials,
			TotalRounds: gsum.TotalRounds,
			ElapsedNs:   elapsed.Nanoseconds(),
			Mallocs:     int64(memAfter.Mallocs - memBefore.Mallocs),
		}
		if secs := elapsed.Seconds(); secs > 0 {
			gb.RoundsPerSec = float64(gsum.TotalRounds) / secs
		}
		if gb.Mallocs > 0 && gsum.TotalRounds > 0 {
			gb.AllocsPerRound = float64(gb.Mallocs) / float64(gsum.TotalRounds)
		}
		out = append(out, gb)
	}
	return out, nil
}

// writeBench writes the throughput artifact — deliberately the only
// goalsweep output that contains timings. A defaulted worker pool is
// recorded as its effective size (GOMAXPROCS), not 0, so artifacts are
// comparable across hosts. workers is the number of worker processes that
// produced the sweep: 1 for a local run, the coordinator's distinct
// submitter count for a distributed one (with parallel then totalling the
// fleet's pools). mallocs is the process's heap-allocation count over the
// sweep (0 = unmeasured, e.g. a coordinator whose allocations happened in
// worker processes); unlike timings it is host-independent, which makes
// allocsPerRound the most portable regression signal in the artifact.
func writeBench(path string, sum *scenario.Summary, elapsed time.Duration, parallel, workers int, mallocs int64, perGoal []harness.GoalBench) error {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	secs := elapsed.Seconds()
	b := harness.SweepBench{
		Spec:        sum.Spec,
		Scenarios:   sum.Scenarios,
		Trials:      sum.Trials,
		TotalRounds: sum.TotalRounds,
		Parallel:    parallel,
		Workers:     workers,
		ElapsedNs:   elapsed.Nanoseconds(),
		Mallocs:     mallocs,
		PerGoal:     perGoal,
	}
	if secs > 0 {
		b.TrialsPerSec = float64(sum.Trials) / secs
		b.RoundsPerSec = float64(sum.TotalRounds) / secs
	}
	if mallocs > 0 && sum.TotalRounds > 0 {
		b.AllocsPerRound = float64(mallocs) / float64(sum.TotalRounds)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
