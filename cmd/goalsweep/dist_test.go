package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestServeWorkByteIdentical is the CLI acceptance criterion for the
// distributed backend: goalsweep serve plus two concurrent goalsweep work
// processes produce a merged report byte-identical to a plain local run,
// with one of the workers warming a result cache on the side.
func TestServeWorkByteIdentical(t *testing.T) {
	t.Parallel()

	full := runSweep(t, "-builtin", "quick", "-json")
	dir := t.TempDir()
	outPath := filepath.Join(dir, "dist.json")

	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var b strings.Builder
		serveDone <- run([]string{"serve", "-builtin", "quick", "-shards", "3",
			"-listen", "127.0.0.1:0", "-json", "-out", outPath}, &b, serveStderr)
	}()
	url := waitForURL(t, serveStderr)

	var wg sync.WaitGroup
	workErrs := make([]error, 2)
	for i := range workErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"work", "-coordinator", url, "-poll", "10ms"}
			if i == 1 {
				args = append(args, "-cache", filepath.Join(dir, "store"))
			}
			var b strings.Builder
			workErrs[i] = run(args, &b, io.Discard)
		}()
	}
	wg.Wait()
	for i, err := range workErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != full {
		t.Fatal("distributed serve/work report differs from plain local -json run")
	}
	if !strings.Contains(serveStderr.String(), "3 shards from 2 workers") {
		t.Fatalf("serve accounting missing:\n%s", serveStderr.String())
	}
}

// serveWork runs one serve + one work invocation to completion and
// returns serve's stderr.
func serveWork(t *testing.T, serveArgs, workArgs []string) string {
	t.Helper()
	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var b strings.Builder
		serveDone <- run(append([]string{"serve", "-listen", "127.0.0.1:0"}, serveArgs...), &b, serveStderr)
	}()
	url := waitForURL(t, serveStderr)
	var b strings.Builder
	if err := run(append([]string{"work", "-coordinator", url, "-poll", "10ms"}, workArgs...), &b, io.Discard); err != nil {
		t.Fatalf("work: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	return serveStderr.String()
}

// TestServeBenchSkippedOnWarmCache pins the distributed counterpart of
// the local -bench/-cache refusal: a fleet that executed every trial gets
// an artifact (with its worker count), a fleet that served from a warm
// shared cache gets a loud skip instead of a lying artifact.
func TestServeBenchSkippedOnWarmCache(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	cold := filepath.Join(dir, "cold-bench.json")
	warm := filepath.Join(dir, "warm-bench.json")

	stderr := serveWork(t,
		[]string{"-builtin", "quick", "-shards", "2", "-bench", cold, "-out", os.DevNull},
		[]string{"-cache", store})
	if strings.Contains(stderr, "artifact skipped") {
		t.Fatalf("cold fleet bench skipped:\n%s", stderr)
	}
	data, err := os.ReadFile(cold)
	if err != nil {
		t.Fatalf("cold fleet wrote no bench artifact: %v", err)
	}
	if !strings.Contains(string(data), `"workers": 1`) {
		t.Fatalf("distributed artifact missing worker count:\n%s", data)
	}

	stderr = serveWork(t,
		[]string{"-builtin", "quick", "-shards", "2", "-bench", warm, "-out", os.DevNull},
		[]string{"-cache", store})
	if !strings.Contains(stderr, "artifact skipped") {
		t.Fatalf("warm fleet bench not skipped:\n%s", stderr)
	}
	if _, err := os.Stat(warm); err == nil {
		t.Fatal("warm fleet wrote a throughput artifact that lies")
	}
}

func TestServeWorkFlagValidation(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	if err := run([]string{"serve", "-builtin", "quick", "-json", "-csv"}, &b, io.Discard); err == nil {
		t.Fatal("serve -json -csv accepted together")
	}
	if err := run([]string{"serve", "-builtin", "quick", "-shards", "0"}, &b, io.Discard); err == nil {
		t.Fatal("serve -shards 0 accepted")
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

	for _, cmd := range [][]string{{"-h"}, {"serve", "-h"}, {"submit", "-h"}, {"chaostest", "-h"}} {
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
