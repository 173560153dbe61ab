package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/scenario"
)

// syncBuffer is a concurrency-safe stderr sink for the serve goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var servingURL = regexp.MustCompile(`at (http://[^\s]+)`)

// waitForURL polls the coordinator's stderr for the serving line and
// returns the resolved base URL.
func waitForURL(t *testing.T, stderr *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := servingURL.FindStringSubmatch(stderr.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("coordinator never printed its serving line:\n%s", stderr.String())
	return ""
}

// startServe runs goalsweep serve on a free loopback port until ctx
// ends, and returns its base URL, its stderr and the channel its exit
// error arrives on.
func startServe(t *testing.T, ctx context.Context, args ...string) (string, *syncBuffer, <-chan error) {
	t.Helper()
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		var b strings.Builder
		done <- runCtx(ctx, append([]string{"serve", "-listen", "127.0.0.1:0"}, args...), &b, stderr)
	}()
	return waitForURL(t, stderr), stderr, done
}

// submitJob runs goalsweep submit against url and returns the job ID it
// printed, and its stderr.
func submitJob(t *testing.T, url string, args ...string) (string, string) {
	t.Helper()
	var out, stderr strings.Builder
	if err := run(append([]string{"submit", "-coordinator", url}, args...), &out, &stderr); err != nil {
		t.Fatalf("submit %v: %v\n%s", args, err, stderr.String())
	}
	return strings.TrimSpace(out.String()), stderr.String()
}

// TestServeWorkByteIdentical is the CLI acceptance criterion for the
// distributed backend, run as a one-shot fleet: goalsweep serve, one
// submitted job, two concurrent goalsweep work -exit-when-idle
// processes (one warming a result cache on the side) and goalsweep
// watch produce a report byte-identical to a plain local run.
func TestServeWorkByteIdentical(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "quick", "-json")
	dir := t.TempDir()
	outPath := filepath.Join(dir, "dist.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url, _, serveDone := startServe(t, ctx)
	job, _ := submitJob(t, url, "-builtin", "quick", "-shards", "3")

	var wg sync.WaitGroup
	workErrs := make([]error, 2)
	for i := range workErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"work", "-coordinator", url, "-poll", "10ms", "-exit-when-idle"}
			if i == 1 {
				args = append(args, "-cache", filepath.Join(dir, "store"))
			}
			var b strings.Builder
			workErrs[i] = run(args, &b, io.Discard)
		}()
	}
	var b strings.Builder
	if err := run([]string{"watch", "-coordinator", url, "-json", "-out", outPath, job}, &b, io.Discard); err != nil {
		t.Fatalf("watch: %v", err)
	}
	wg.Wait()
	for i, err := range workErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != full {
		t.Fatal("distributed serve/work report differs from plain local -json run")
	}
	// Both workers reached the coordinator, and every shard was credited
	// to one of them.
	_, _, body := getBody(t, url+"/status")
	var st dist.StatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for _, ws := range st.WorkerStates {
		submitted += ws.Submitted
	}
	if st.Workers != 2 || submitted != 3 {
		t.Fatalf("/status: %d workers with %d shards submitted, want 2 and 3", st.Workers, submitted)
	}
	cancel()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestChaostestFaultLog pins the chaostest harness: one chaotic run under
// seed 42 fires exactly the recorded fault log, and its merged report
// matches the serial baseline's recorded size.
func TestChaostestFaultLog(t *testing.T) {
	t.Parallel()

	want, err := os.ReadFile(filepath.Join("testdata", "chaostest-quick-seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := runSweep(t, "chaostest", "-builtin", "quick", "-shards", "6", "-workers", "2", "-runs", "1",
		"-chaos", "drop=2,delay=2:20ms,dup=1,trunc=1,err=2", "-chaosseed", "42", "-faultlog")
	if got != string(want) {
		t.Fatalf("chaostest output differs from the golden:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestServeWorkFlagValidation(t *testing.T) {
	t.Parallel()

	// serve is the service alone: spec, partition and report flags
	// belong to submit and watch, and are refused as unknown.
	var b strings.Builder
	for _, args := range [][]string{
		{"-service"},
		{"-builtin", "quick"},
		{"-shards", "2"},
		{"-json"},
		{"-out", "report.json"},
		{"-bench", "bench.json"},
		{"-linger", "1s"},
	} {
		if err := run(append([]string{"serve"}, args...), &b, io.Discard); err == nil ||
			!strings.Contains(err.Error(), "not defined") {
			t.Errorf("serve %v accepted: %v", args, err)
		}
	}
	if err := run([]string{"work"}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-coordinator") {
		t.Fatalf("work without -coordinator accepted: %v", err)
	}
}

// TestBuiltinHelpListsEverySpec: every subcommand that takes -builtin
// names every built-in spec in its help text.
func TestBuiltinHelpListsEverySpec(t *testing.T) {
	t.Parallel()

	for _, cmd := range [][]string{{"-h"}, {"submit", "-h"}, {"chaostest", "-h"}} {
		var b strings.Builder
		run(cmd, &b, io.Discard)
		_, help, _ := strings.Cut(b.String(), "-builtin string\n")
		help, _, _ = strings.Cut(help, "\n")
		for _, name := range scenario.BuiltinSpecNames() {
			if !strings.Contains(help, name) {
				t.Errorf("%v: -builtin help %q does not name %q", cmd, help, name)
			}
		}
	}
}

// TestMergeErrorsNameOffendingFile pins the fix for merge diagnostics:
// mismatch errors must name the input file that conflicts, not just print
// fingerprints.
func TestMergeErrorsNameOffendingFile(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	s1 := filepath.Join(dir, "s1.json")
	s2 := filepath.Join(dir, "s2-foreign.json")
	dup := filepath.Join(dir, "s1-again.json")
	runSweep(t, "-builtin", "quick", "-shard", "1/2", "-json", "-out", s1)
	runSweep(t, "-builtin", "quick", "-seeds", "2", "-shard", "2/2", "-json", "-out", s2)
	runSweep(t, "-builtin", "quick", "-shard", "1/2", "-json", "-out", dup)

	var b strings.Builder
	err := run([]string{"merge", s1, s2}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), s2) || !strings.Contains(err.Error(), s1) ||
		!strings.Contains(err.Error(), "different sweeps") {
		t.Fatalf("fingerprint mismatch does not name both files: %v", err)
	}
	err = run([]string{"merge", s1, dup}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), dup) || !strings.Contains(err.Error(), s1) ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard does not name both files: %v", err)
	}
}
