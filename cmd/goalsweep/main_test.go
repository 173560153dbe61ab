package main

import (
	"encoding/json"
	"fmt"
	"runtime"

	"io"
	"os"
	"path/filepath"
	"repro/internal/harness"
	"strings"
	"testing"
)

func runSweep(t *testing.T, args ...string) string {
	t.Helper()
	out, _ := runSweep2(t, args...)
	return out
}

// runSweep2 also captures stderr (cache accounting).
func runSweep2(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var b, e strings.Builder
	if err := run(args, &b, &e); err != nil {
		t.Fatalf("goalsweep %v: %v\n%s%s", args, err, b.String(), e.String())
	}
	return b.String(), e.String()
}

// TestJSONByteIdenticalAcrossParallelism is the PR's acceptance criterion:
// over the ≥200-scenario default matrix, -json output at -parallel 1 is
// byte-identical to the default (GOMAXPROCS) pool.
func TestJSONByteIdenticalAcrossParallelism(t *testing.T) {
	t.Parallel()

	serial := runSweep(t, "-builtin", "default", "-json", "-parallel", "1")
	parallel := runSweep(t, "-builtin", "default", "-json")
	if serial != parallel {
		t.Fatal("-json output differs between -parallel 1 and the default pool")
	}
	if !strings.Contains(serial, `"scenarios": 288`) {
		t.Fatalf("default matrix is not the expected 288 scenarios:\n%s",
			serial[len(serial)-400:])
	}
}

func TestTableOutput(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "quick")
	for _, want := range []string{"SWEEP", "obstinate", "summary:", "12 scenarios"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "quick", "-csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 13 { // header + 12 scenarios
		t.Fatalf("CSV has %d lines, want 13:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "id,goal,class,server,noise,rounds,") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
}

func TestListDoesNotExecute(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "default", "-list", "-sample", "7")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 7 {
		t.Fatalf("-list -sample 7 printed %d lines:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !strings.Contains(line, "goal=") {
			t.Fatalf("listing line missing coordinates: %s", line)
		}
	}
}

// TestSampleIsSubsetOfFullSweep checks that a sampled sweep reports
// exactly the rows the full sweep reports for those scenario IDs.
func TestSampleIsSubsetOfFullSweep(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "quick", "-csv")
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(full), "\n")[1:] {
		id := line[:strings.Index(line, ",")]
		rows[id] = line
	}
	sampled := runSweep(t, "-builtin", "quick", "-csv", "-sample", "4", "-sampleseed", "9")
	lines := strings.Split(strings.TrimSpace(sampled), "\n")[1:]
	if len(lines) != 4 {
		t.Fatalf("sampled %d rows, want 4", len(lines))
	}
	for _, line := range lines {
		id := line[:strings.Index(line, ",")]
		if rows[id] != line {
			t.Fatalf("sampled row for %s differs from full sweep:\n%s\n%s", id, line, rows[id])
		}
	}
}

func TestFilterRestrictsAxes(t *testing.T) {
	t.Parallel()

	out := runSweep(t, "-builtin", "quick", "-csv",
		"-filter", "goal=treasure", "-filter", "server=0,-1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 1 goal × 2 servers × 2 noise
		t.Fatalf("filtered CSV has %d lines, want 5:\n%s", len(lines), out)
	}
	if strings.Contains(out, "printing") || strings.Contains(out, "obstinate") {
		t.Fatalf("filtered output leaked excluded values:\n%s", out)
	}

	var b strings.Builder
	if err := run([]string{"-builtin", "quick", "-filter", "bogus"}, &b, io.Discard); err == nil {
		t.Fatal("malformed -filter accepted")
	}
	if err := run([]string{"-builtin", "quick", "-filter", "goal=nosuch"}, &b, io.Discard); err == nil {
		t.Fatal("-filter with unknown value accepted")
	}
}

func TestSpecFileAndOverrides(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	spec := `{
		"name": "mini",
		"seeds": 1,
		"axes": [
			{"name": "goal", "values": ["treasure"]},
			{"name": "class", "values": ["3"]},
			{"name": "server", "values": ["0", "2"]},
			{"name": "rounds", "values": ["200"]}
		]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSweep(t, "-spec", path, "-csv", "-seeds", "3")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("spec sweep has %d lines, want 3:\n%s", len(lines), out)
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, ",3,0,3,1,") { // trials=3, errors=0, successes=3, rate=1
			t.Fatalf("-seeds 3 override not applied: %s", line)
		}
	}

	var b strings.Builder
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, &b, io.Discard); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

func TestBenchArtifact(t *testing.T) {
	t.Parallel()

	path := filepath.Join(t.TempDir(), "bench.json")
	runSweep(t, "-builtin", "quick", "-bench", path, "-json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"spec": "quick"`, `"roundsPerSec"`, `"trials": 12`, `"mallocs"`, `"allocsPerRound"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("bench artifact missing %s:\n%s", want, data)
		}
	}
	var b harness.SweepBench
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Mallocs <= 0 || b.AllocsPerRound <= 0 {
		t.Fatalf("bench artifact without allocation accounting: mallocs=%d allocsPerRound=%g", b.Mallocs, b.AllocsPerRound)
	}
	// No magnitude ceiling here: mallocs is a process-wide MemStats
	// delta, and this package's tests run in parallel (the dist tests
	// sweep whole matrices concurrently), so any tight bound would be
	// flaky. The precise per-goal allocation gates live in the root
	// alloc_test.go, measured with testing.AllocsPerRun.
}

// TestProfileFlags pins the -cpuprofile/-memprofile surface: a local
// sweep writes both profiles; serve and work refuse them.
func TestProfileFlags(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	runSweep(t, "-builtin", "quick", "-cpuprofile", cpu, "-memprofile", mem, "-out", filepath.Join(dir, "out.txt"))
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
	var b strings.Builder
	for _, args := range [][]string{
		{"serve", "-cpuprofile", cpu},
		{"serve", "-memprofile", mem},
		{"work", "-coordinator", "http://127.0.0.1:1", "-cpuprofile", cpu},
		{"work", "-coordinator", "http://127.0.0.1:1", "-memprofile", mem},
	} {
		if err := run(args, &b, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "profile a local run") {
			t.Fatalf("goalsweep %v accepted profiling flags: %v", args, err)
		}
	}
}

func TestMutuallyExclusiveOutputs(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := run([]string{"-builtin", "quick", "-json", "-csv"}, &b, io.Discard); err == nil {
		t.Fatal("-json -csv accepted together")
	}
	if err := run([]string{"-builtin", "nosuch"}, &b, io.Discard); err == nil {
		t.Fatal("unknown builtin accepted")
	}
	// A warm cache or a shard would make the throughput artifact lie.
	if err := run([]string{"-builtin", "quick", "-bench", "b.json", "-cache", t.TempDir()}, &b, io.Discard); err == nil {
		t.Fatal("-bench -cache accepted together")
	}
	if err := run([]string{"-builtin", "quick", "-bench", "b.json", "-shard", "1/2"}, &b, io.Discard); err == nil {
		t.Fatal("-bench -shard accepted together")
	}
}

// TestShardMergeByteIdentical is the CLI acceptance criterion for
// sharding: shard envelopes produced by -shard i/n -json merge into
// output byte-identical to a fresh unsharded -json run, at several shard
// counts.
func TestShardMergeByteIdentical(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "quick", "-json")
	dir := t.TempDir()
	for _, count := range []int{1, 2, 3, 5} {
		var files []string
		for i := 1; i <= count; i++ {
			path := filepath.Join(dir, fmt.Sprintf("c%d-s%d.json", count, i))
			runSweep(t, "-builtin", "quick",
				"-shard", fmt.Sprintf("%d/%d", i, count), "-json", "-out", path)
			files = append(files, path)
		}
		// Merge in reverse order: envelope order must not matter.
		for l, r := 0, len(files)-1; l < r; l, r = l+1, r-1 {
			files[l], files[r] = files[r], files[l]
		}
		merged := runSweep(t, append([]string{"merge", "-json"}, files...)...)
		if merged != full {
			t.Fatalf("%d-way shard merge differs from unsharded -json run", count)
		}
	}
}

// TestShardMergeCSVAndTable checks the merged non-JSON renderings also
// reproduce the unsharded output.
func TestShardMergeCSVAndTable(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	var files []string
	for i := 1; i <= 3; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		runSweep(t, "-builtin", "quick", "-shard", fmt.Sprintf("%d/3", i), "-json", "-out", path)
		files = append(files, path)
	}
	if got, want := runSweep(t, append([]string{"merge", "-csv"}, files...)...), runSweep(t, "-builtin", "quick", "-csv"); got != want {
		t.Fatal("merged -csv differs from unsharded -csv")
	}
	if got, want := runSweep(t, append([]string{"merge"}, files...)...), runSweep(t, "-builtin", "quick"); got != want {
		t.Fatalf("merged table differs from unsharded table:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestShardSampleCompose checks -shard partitions the -sample selection.
func TestShardSampleCompose(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "default", "-sample", "9", "-sampleseed", "4", "-json")
	dir := t.TempDir()
	var files []string
	for i := 1; i <= 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		runSweep(t, "-builtin", "default", "-sample", "9", "-sampleseed", "4",
			"-shard", fmt.Sprintf("%d/2", i), "-json", "-out", path)
		files = append(files, path)
	}
	merged := runSweep(t, append([]string{"merge", "-json"}, files...)...)
	if merged != full {
		t.Fatal("sharded sampled sweep merge differs from unsharded sampled run")
	}
}

func TestMergeRejectsMismatchedShards(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.json")
	s2 := filepath.Join(dir, "s2.json")
	runSweep(t, "-builtin", "quick", "-shard", "1/2", "-json", "-out", s1)
	// Same shard coordinates, different sweep (seeds override).
	runSweep(t, "-builtin", "quick", "-seeds", "2", "-shard", "2/2", "-json", "-out", s2)
	var b strings.Builder
	if err := run([]string{"merge", s1, s2}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "different sweeps") {
		t.Fatalf("mismatched shards merged: %v", err)
	}
	if err := run([]string{"merge", s1, s1}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard merged: %v", err)
	}
	if err := run([]string{"merge", s1}, &b, io.Discard); err == nil {
		t.Fatal("incomplete shard set merged")
	}
	if err := run([]string{"merge"}, &b, io.Discard); err == nil {
		t.Fatal("merge with no files accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"merge", garbage}, &b, io.Discard); err == nil {
		t.Fatal("garbage shard file accepted")
	}
}

// TestCacheWarmRunByteIdentical is the CLI acceptance criterion for
// caching: a warm -cache rerun emits byte-identical output and executes
// zero trials.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	t.Parallel()

	plain := runSweep(t, "-builtin", "quick", "-json")
	dir := filepath.Join(t.TempDir(), "store")
	cold, coldErr := runSweep2(t, "-builtin", "quick", "-json", "-cache", dir)
	if cold != plain {
		t.Fatal("cold cached run differs from uncached run")
	}
	if !strings.Contains(coldErr, "cache: 0 hits, 12 misses, 12 trials executed") {
		t.Fatalf("cold cache accounting wrong: %q", coldErr)
	}
	warm, warmErr := runSweep2(t, "-builtin", "quick", "-json", "-cache", dir)
	if warm != plain {
		t.Fatal("warm cached run differs from uncached run")
	}
	if !strings.Contains(warmErr, "cache: 12 hits, 0 misses, 0 trials executed") {
		t.Fatalf("warm cache accounting wrong: %q", warmErr)
	}
	// Table and CSV renderings are warm-identical too.
	if got, want := runSweep(t, "-builtin", "quick", "-csv", "-cache", dir), runSweep(t, "-builtin", "quick", "-csv"); got != want {
		t.Fatal("warm cached -csv differs from uncached -csv")
	}
}

func TestFingerprintFlag(t *testing.T) {
	t.Parallel()

	fp := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-fingerprint"))
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", fp)
	}
	if again := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-fingerprint")); again != fp {
		t.Fatal("fingerprint unstable across invocations")
	}
	if other := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-seeds", "3", "-fingerprint")); other == fp {
		t.Fatal("-seeds override did not change the fingerprint")
	}
	if other := strings.TrimSpace(runSweep(t, "-builtin", "quick", "-filter", "goal=printing", "-fingerprint")); other == fp {
		t.Fatal("-filter restriction did not change the fingerprint")
	}
}

// TestBenchRecordsEffectiveParallelism pins the fix for bench artifacts
// reporting "parallel": 0 when the pool defaults to GOMAXPROCS.
func TestBenchRecordsEffectiveParallelism(t *testing.T) {
	t.Parallel()

	read := func(args ...string) harness.SweepBench {
		t.Helper()
		path := filepath.Join(t.TempDir(), "bench.json")
		runSweep(t, append(args, "-bench", path, "-out", os.DevNull, "-json")...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b harness.SweepBench
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b := read("-builtin", "quick"); b.Parallel != runtime.GOMAXPROCS(0) {
		t.Fatalf("defaulted pool recorded parallel=%d, want GOMAXPROCS=%d", b.Parallel, runtime.GOMAXPROCS(0))
	}
	if b := read("-builtin", "quick", "-parallel", "3"); b.Parallel != 3 {
		t.Fatalf("explicit pool recorded parallel=%d, want 3", b.Parallel)
	}
}

func TestBenchcmp(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	write := func(name string, b harness.SweepBench) string {
		t.Helper()
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mk := func(rps float64, parallel int) harness.SweepBench {
		return harness.SweepBench{Spec: "default", Scenarios: 288, Trials: 576,
			RoundsPerSec: rps, TrialsPerSec: rps / 1000, Parallel: parallel}
	}
	base := write("base.json", mk(1e6, 1))
	ok := write("ok.json", mk(8e5, 1))
	slow := write("slow.json", mk(4e5, 1))
	other := write("other.json", harness.SweepBench{Spec: "quick", Scenarios: 12, Trials: 12, RoundsPerSec: 1e6, Parallel: 1})
	reshaped := write("reshaped.json", harness.SweepBench{Spec: "default", Scenarios: 100, Trials: 200, RoundsPerSec: 1e6, Parallel: 1})
	unparallel := write("unparallel.json", harness.SweepBench{Spec: "default", Scenarios: 288, Trials: 576, RoundsPerSec: 1e6})
	// Twice the workers, same total throughput: per-worker rate halved.
	wide := write("wide.json", mk(1e6, 2))

	out := runSweep(t, "benchcmp", base, ok)
	if !strings.Contains(out, "1000000 -> 800000") || !strings.Contains(out, "-20.0%") {
		t.Fatalf("benchcmp output wrong: %q", out)
	}
	var b strings.Builder
	if err := run([]string{"benchcmp", base, slow}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "regression") {
		t.Fatalf("60%% drop passed the default gate: %v", err)
	}
	runSweep(t, "benchcmp", "-maxdrop", "0.7", base, slow) // loosened gate passes
	// Pools of different sizes are compared per worker, so a wider host
	// cannot mask a per-core regression.
	out = runSweep(t, "benchcmp", "-maxdrop", "0.6", base, wide)
	if !strings.Contains(out, "roundsPerSec/worker") || !strings.Contains(out, "-50.0%") {
		t.Fatalf("per-worker normalization missing: %q", out)
	}
	if err := run([]string{"benchcmp", "-maxdrop", "0.4", base, wide}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "regression") {
		t.Fatalf("halved per-worker rate passed a 40%% gate: %v", err)
	}
	if err := run([]string{"benchcmp", base, other}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "different specs") {
		t.Fatalf("cross-spec comparison accepted: %v", err)
	}
	if err := run([]string{"benchcmp", base, reshaped}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "different workloads") {
		t.Fatalf("reshaped-spec comparison accepted: %v", err)
	}
	if err := run([]string{"benchcmp", base, unparallel}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "parallelism") {
		t.Fatalf("parallel=0 artifact accepted: %v", err)
	}
	if err := run([]string{"benchcmp", base}, &b, io.Discard); err == nil {
		t.Fatal("benchcmp with one file accepted")
	}
}

// TestBenchcmpAllocGate pins the allocation half of the gate: growth in
// allocsPerRound beyond -maxallocgrow fails even when throughput held,
// and artifacts without counts (pre-accounting or distributed) are
// compared on rate alone.
func TestBenchcmpAllocGate(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	write := func(name string, b harness.SweepBench) string {
		t.Helper()
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mk := func(rps, apr float64) harness.SweepBench {
		b := harness.SweepBench{Spec: "default", Scenarios: 288, Trials: 576,
			RoundsPerSec: rps, Parallel: 1, AllocsPerRound: apr}
		if apr > 0 {
			b.Mallocs = int64(apr * 460800)
		}
		return b
	}
	base := write("base.json", mk(1e6, 0.6))
	lean := write("lean.json", mk(1e6, 0.7))       // +17%: fine
	bloated := write("bloated.json", mk(1e6, 1.2)) // +100%: regression despite equal rate
	uncounted := write("uncounted.json", mk(1e6, 0))

	out := runSweep(t, "benchcmp", base, lean)
	if !strings.Contains(out, "allocsPerRound 0.60 -> 0.70") {
		t.Fatalf("alloc comparison missing from output: %q", out)
	}
	var b strings.Builder
	if err := run([]string{"benchcmp", base, bloated}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "allocation regression") {
		t.Fatalf("doubled allocsPerRound passed the gate: %v", err)
	}
	runSweep(t, "benchcmp", "-maxallocgrow", "1.5", base, bloated) // loosened gate passes
	// No counts on one side: rate-only comparison, no alloc line.
	out = runSweep(t, "benchcmp", base, uncounted)
	if strings.Contains(out, "allocsPerRound") {
		t.Fatalf("alloc comparison printed for an uncounted artifact: %q", out)
	}
}
