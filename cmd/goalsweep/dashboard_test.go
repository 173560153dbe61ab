package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// getBody fetches a URL and returns status, content type, and body.
func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServeDashboardEndpoints drives goalsweep serve -dashboard
// -bench-history end to end: while the coordinator waits for workers,
// the root path serves the embedded page, /metrics serves the
// Prometheus exposition, and /bench-history re-serves the trajectory
// file; the protocol endpoints keep working underneath, and -v surfaces
// the structured lease lifecycle on stderr.
func TestServeDashboardEndpoints(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	history := filepath.Join(dir, "bench-history.jsonl")
	line1 := `{"spec":"quick sweep","roundsPerSec":100000,"commit":"aaaaaaa1"}`
	line2 := `{"spec":"quick sweep","roundsPerSec":120000,"commit":"bbbbbbb2"}`
	if err := os.WriteFile(history, []byte(line1+"\n"+line2+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	serveStderr := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var b strings.Builder
		serveDone <- run([]string{"serve", "-builtin", "quick", "-shards", "2",
			"-listen", "127.0.0.1:0", "-dashboard", "-bench-history", history, "-v",
			"-out", os.DevNull}, &b, serveStderr)
	}()
	url := waitForURL(t, serveStderr)

	// The dashboard page at the exact root.
	status, ctype, body := getBody(t, url+"/")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "text/html") {
		t.Fatalf("GET / = %d %q, want 200 text/html", status, ctype)
	}
	if !strings.Contains(body, "goalsweep") || !strings.Contains(body, "/bench-history") {
		t.Fatal("dashboard page missing expected content")
	}

	// The Prometheus exposition, with coordinator families present even
	// before any worker shows up.
	status, ctype, body = getBody(t, url+"/metrics")
	if status != http.StatusOK || ctype != obs.PromContentType {
		t.Fatalf("GET /metrics = %d %q, want 200 %q", status, ctype, obs.PromContentType)
	}
	for _, fam := range []string{
		"# TYPE goalsweep_coord_leases_granted_total counter",
		"# TYPE goalsweep_engine_rounds_total counter",
		"# TYPE goalsweep_cache_hits_total counter",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}

	// The trajectory file, byte for byte.
	status, ctype, body = getBody(t, url+"/bench-history")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/jsonl") {
		t.Fatalf("GET /bench-history = %d %q, want 200 application/jsonl", status, ctype)
	}
	if body != line1+"\n"+line2+"\n" {
		t.Fatalf("/bench-history served %q", body)
	}

	// The protocol endpoints still work underneath the dashboard mux,
	// and /status carries the batch job in its jobs array.
	status, _, body = getBody(t, url+"/status")
	if status != http.StatusOK {
		t.Fatalf("GET /status through dashboard mux = %d %q", status, body)
	}
	var st dist.StatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.BuiltinSpec("quick")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dist.NewPlan(spec, scenario.Builtin().Version(), scenario.SweepConfig{}, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].ID != dist.JobID(plan) || st.Jobs[0].Shards != 2 {
		t.Fatalf("GET /status jobs = %+v, want the batch job %s with 2 shards", st.Jobs, dist.JobID(plan))
	}

	var b strings.Builder
	if err := run([]string{"work", "-coordinator", url, "-poll", "10ms"}, &b, io.Discard); err != nil {
		t.Fatalf("work: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// -v surfaced the structured lease lifecycle on serve's stderr.
	stderr := serveStderr.String()
	for _, event := range []string{"event=lease.grant", "event=submit.accept", "event=sweep.complete"} {
		if !strings.Contains(stderr, event) {
			t.Errorf("serve -v stderr missing %q:\n%s", event, stderr)
		}
	}
	if !strings.Contains(stderr, "2 shards from 1 workers") {
		t.Fatalf("serve accounting missing:\n%s", stderr)
	}
}

// TestServeDashboardFlagValidation pins the flag contract: -bench-history
// is a dashboard feature and is refused without it.
func TestServeDashboardFlagValidation(t *testing.T) {
	t.Parallel()

	var b strings.Builder
	err := run([]string{"serve", "-builtin", "quick", "-bench-history", "x.jsonl"}, &b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-dashboard") {
		t.Fatalf("serve -bench-history without -dashboard accepted: %v", err)
	}
}

// TestBenchcmpHistory exercises benchcmp -history: a well-formed
// trajectory passes with a summary, while duplicate commits and
// unparseable lines fail naming the offending line.
func TestBenchcmpHistory(t *testing.T) {
	t.Parallel()

	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.jsonl",
		`{"spec":"quick sweep","roundsPerSec":100000,"commit":"aaaaaaa1"}`+"\n"+
			"\n"+ // blank lines are tolerated
			`{"spec":"quick sweep","roundsPerSec":120000,"commit":"bbbbbbb2"}`+"\n")
	dup := write("dup.jsonl",
		`{"spec":"quick sweep","roundsPerSec":100000,"commit":"aaaaaaa1"}`+"\n"+
			`{"spec":"quick sweep","roundsPerSec":120000,"commit":"aaaaaaa1"}`+"\n")
	garbage := write("garbage.jsonl",
		`{"spec":"quick sweep","roundsPerSec":100000,"commit":"aaaaaaa1"}`+"\n"+
			"not json\n")
	empty := write("empty.jsonl", "\n")

	var out strings.Builder
	if err := run([]string{"benchcmp", "-history", good}, &out, io.Discard); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "2 records, 2 unique commits") ||
		!strings.Contains(got, `spec "quick sweep"`) {
		t.Fatalf("summary line wrong: %q", got)
	}

	var b strings.Builder
	if err := run([]string{"benchcmp", "-history", dup}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), ":2:") || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("duplicate commit not caught with both lines: %v", err)
	}
	if err := run([]string{"benchcmp", "-history", garbage}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), ":2:") || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("garbage line not caught with line number: %v", err)
	}
	if err := run([]string{"benchcmp", "-history", empty}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no bench history records") {
		t.Fatalf("empty history accepted: %v", err)
	}
	if err := run([]string{"benchcmp", "-history", good, "somefile.json"}, &b, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no artifact arguments") {
		t.Fatalf("-history with artifact arguments accepted: %v", err)
	}
}
