// Command perfbench is the repository's benchmark: it runs one named
// workload against the library's public API, checks every output against
// a serial reference, and prints the metrics as one JSON line.
//
//	perfbench --workload engine|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off; with --trace 1 it reports the per-layer metrics from a traced run
// and writes the spans to .bench_build/perfbench-work/trace-<workload>-seed<N>.json. See
// README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"rounds_per_s", "1/s"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// goals are the goal families the engine probe times separately.
var goals = []string{"control", "printing", "transfer", "treasure", "fsm"}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for its metrics.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, g := range goals {
		defs = append(defs, metricDef{"system.ns_per_round." + g, "ns"})
	}
	return append(defs, []metricDef{
		{"system.user_ns_per_round", "ns"},
		{"system.server_ns_per_round", "ns"},
		{"system.rest_ns_per_round", "ns"},
		{"system.allocs_per_round", "allocs/round"},
		{"system.scaling_eff", "ratio"},
		{"scenario.sweep_outside_engine_frac", "ratio"},
		{"scenario.bind_us", "us"},
		{"scenario.at_us", "us"},
		{"scenario.sample_ms", "ms"},
		{"scenario.fingerprint_ms", "ms"},
		{"scenario.cache_get_us", "us"},
		{"scenario.cache_put_us", "us"},
		{"scenario.cache_hit_ratio", "ratio"},
		{"scenario.cache_entry_kb", "KiB"},
		{"scenario.shard_write_ms", "ms"},
		{"scenario.shard_read_ms", "ms"},
		{"scenario.envelope_kb", "KiB"},
		{"scenario.merge_ms", "ms"},
		{"dist.lease_ms.p50", "ms"},
		{"dist.lease_ms.p90", "ms"},
		{"dist.submit_ms.p50", "ms"},
		{"dist.submit_ms.p90", "ms"},
		{"dist.lease_rtt_ms.p50", "ms"},
		{"dist.submit_rtt_ms.p50", "ms"},
		{"dist.shard_ms.p50", "ms"},
		{"dist.shard_ms.p90", "ms"},
		{"dist.coord_busy_frac", "ratio"},
		{"dist.worker_busy_frac", "ratio"},
		{"dist.http_calls", "count"},
		{"dist.http_failed", "count"},
		{"dist.retries", "count"},
		{"dist.poll_waits", "count"},
		{"dist.events_frames", "count"},
		{"dist.events_kb", "KiB"},
		{"trace.overhead_frac", "ratio"},
	}...)
}()

// workdir holds cache stores and trace files, relative to the checkout
// root the benchmark runs from.
const workdir = ".bench_build/perfbench-work"

const (
	// setupRuns is how many times set-up is repeated; setup_s is the
	// median.
	setupRuns = 5
	// minReps is the fewest measured repetitions a run makes, however
	// short --seconds is.
	minReps = 3
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: engine or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = traceFlag == 1
	setup, ok := workloads[cfg.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload engine|fleet, --trace 0|1, --seconds > 0\n")
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := measure(cfg, setup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure sets the workload up setupRuns times, then runs repetitions
// for cfg.seconds: untraced ones for the end-to-end metrics, or
// untraced and traced ones alternately for the per-layer metrics.
func measure(cfg config, setup setupFunc) (*result, error) {
	var setups []float64
	var w workload
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		next, err := setup(cfg)
		if err != nil {
			if w != nil {
				w.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			w.close()
		}
		w = next
	}
	defer w.close()

	o := &ops{}
	// One unmeasured repetition lets lazy initialisation and the
	// connection pool settle; its output is still checked.
	if _, err := doRep(w, &repEnv{ops: o, run: "warmup"}); err != nil {
		return nil, err
	}

	var tr *tracer
	acc := &accum{}
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []sample
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; ; n++ {
		env := &repEnv{ops: o, run: fmt.Sprintf("%s-seed%d-rep%d", cfg.workload, cfg.seed, n)}
		if cfg.trace && n%2 == 1 {
			env.tr, env.acc = tr, acc
		}
		s, err := doRep(w, env)
		if err != nil {
			return nil, err
		}
		if env.tr != nil {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		done := len(plain) >= minReps && (!cfg.trace || len(traced) >= minReps)
		if done && time.Now().After(deadline) {
			break
		}
	}

	metrics := make(map[string]metricValue)
	if !cfg.trace {
		vals := endToEndValues(plain, median(setups))
		for _, d := range endToEnd {
			metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		report(cfg, plain, setups)
	} else {
		// Self-check: tracing must not change a byte of output.
		for _, s := range traced {
			o.check(s.digest == plain[0].digest, "traced report equals untraced report")
		}
		vals := make(map[string]float64)
		if err := w.layers(tr, acc, o, vals); err != nil {
			return nil, err
		}
		vals["trace.overhead_frac"] = median(walls(traced))/median(walls(plain)) - 1
		for _, d := range perLayer {
			metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		path := filepath.Join(workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d traced and %d untraced repetitions; spans in %s\n",
			len(traced), len(plain), path)
		for _, r := range tr.selfTimes() {
			fmt.Fprintf(os.Stderr, "  %-34s n=%-6d total=%10.2fms self=%10.2fms\n", r.Name, r.Count, r.TotalMs, r.SelfMs)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d operations attempted, %d failed (failed_frac %g)\n",
		o.attempted, o.failed, float64(o.failed)/float64(o.attempted))
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall.Seconds()
	}
	return out
}

// endToEndValues reduces the repetitions to their medians.
func endToEndValues(ss []sample, setup float64) map[string]float64 {
	var cpu, cells, rounds, heap []float64
	for _, s := range ss {
		cpu = append(cpu, s.cpu.Seconds())
		cells = append(cells, float64(s.cells)/s.wall.Seconds())
		rounds = append(rounds, float64(s.rounds)/s.wall.Seconds())
		heap = append(heap, s.peakHeap/(1<<20))
	}
	return map[string]float64{
		"wall_s":          median(walls(ss)),
		"cpu_s":           median(cpu),
		"scenarios_per_s": median(cells),
		"rounds_per_s":    median(rounds),
		"peak_heap_mb":    median(heap),
		"setup_s":         setup,
	}
}

// report prints each end-to-end metric's median and quartiles over the
// run's repetitions to standard error.
func report(cfg config, ss []sample, setups []float64) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetitions, %d set-ups\n", cfg.workload, cfg.seed, len(ss), len(setups))
	series := map[string][]float64{"wall_s": walls(ss), "setup_s": setups}
	for _, s := range ss {
		series["cpu_s"] = append(series["cpu_s"], s.cpu.Seconds())
		series["peak_heap_mb"] = append(series["peak_heap_mb"], s.peakHeap/(1<<20))
	}
	fmt.Fprintf(os.Stderr, "  per-repetition wall_s:")
	for _, x := range series["wall_s"] {
		fmt.Fprintf(os.Stderr, " %.4f", x)
	}
	fmt.Fprintln(os.Stderr)
	for _, d := range endToEnd {
		xs, ok := series[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g %s\n",
			d.name, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), d.unit)
	}
}
