package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// shardEnvelopes runs every shard of plan in-process, as a worker would.
func shardEnvelopes(t *testing.T, plan Plan) []*scenario.ShardResult {
	t.Helper()
	w := &Worker{}
	var out []*scenario.ShardResult
	for i := 1; i <= plan.Shards; i++ {
		p := clonePlan(t, plan)
		sr, err := w.runShard(&LeaseResponse{LeaseID: "probe", Shard: scenario.Shard{Index: i, Count: plan.Shards}, Plan: &p})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sr)
	}
	return out
}

// postResult submits body verbatim under leaseID.
func postResult(ctx context.Context, api *Client, leaseID string, body []byte) (*SubmitResponse, error) {
	var ack SubmitResponse
	path := "/v1/leases/" + leaseID + "/result"
	if err := api.do(ctx, http.MethodPost, path, bytes.NewReader(body), &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// collectFrames gathers one subscription's frames as "type id data".
func collectFrames(ctx context.Context, api *Client, id string) ([]string, error) {
	var frames []string
	err := api.Events(ctx, id, func(ev SweepEvent) error {
		frames = append(frames, ev.Type+" "+ev.ID+" "+string(ev.Data))
		return nil
	})
	return frames, err
}

func rawFrames(t *testing.T, ctx context.Context, api *Client, id string) []string {
	t.Helper()
	frames, err := collectFrames(ctx, api, id)
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestShardFramesForwardSubmittedBytes: the coordinator forwards each
// accepted envelope on the event stream as the worker submitted it —
// live to a subscriber that was waiting, and again to a late subscriber,
// whose replay equals the live stream frame for frame. Any one-line body
// is forwarded byte for byte, not re-encoded; a trailing newline after
// the envelope is not part of it.
func TestShardFramesForwardSubmittedBytes(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 3)
	envelopes := shardEnvelopes(t, plan)
	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	api := loopbackAPI(svc)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	created, err := api.CreateSweep(ctx, SweepRequest{Spec: plan.Spec, Shards: plan.Shards})
	if err != nil {
		t.Fatal(err)
	}
	id := created.Job.ID

	var live []string
	liveErr := make(chan error)
	go func() {
		var err error
		live, err = collectFrames(ctx, api, id)
		liveErr <- err
	}()
	for {
		svc.mu.Lock()
		subscribed := len(svc.jobs[id].subs) > 0
		svc.mu.Unlock()
		if subscribed {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var want []string
	for range envelopes {
		lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(envelopes[lease.Shard.Index-1])
		if err != nil {
			t.Fatal(err)
		}
		body, data := compact, compact
		switch lease.Shard.Index {
		case 2: // json.Encoder's form: the newline is not part of the envelope
			body = append(append([]byte(nil), compact...), '\n')
		case 3: // one line, but not what a re-encoding would produce
			body = bytes.Replace(compact, []byte(`{"version":1,`), []byte(`{ "version": 1, `), 1)
			if bytes.Equal(body, compact) {
				t.Fatal("test setup: version field not found in envelope")
			}
			data = body
		}
		if _, err := postResult(ctx, api, lease.LeaseID, body); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%s %d %s", EventShard, lease.Shard.Index, data))
	}
	if err := <-liveErr; err != nil {
		t.Fatal(err)
	}
	if len(live) != plan.Shards+1 {
		t.Fatalf("live stream carried %d frames, want %d", len(live), plan.Shards+1)
	}
	for i, w := range want {
		if live[i] != w {
			t.Fatalf("live frame %d is not the submitted body:\n got %.120s\nwant %.120s", i, live[i], w)
		}
	}
	if !strings.HasPrefix(live[plan.Shards], EventComplete+" "+id+" ") {
		t.Fatalf("last live frame is %.80s, want the complete frame", live[plan.Shards])
	}
	if replay := rawFrames(t, ctx, api, id); fmt.Sprint(replay) != fmt.Sprint(live) {
		t.Fatal("a late subscriber's replay differs from the live stream")
	}
}

// TestDuplicateSubmitCompared: a second submit for a completed shard is
// compared with the accepted envelope. The same bytes, or the same
// envelope in another encoding, are acknowledged; a different envelope
// is refused with 409, counted as a "mismatch" rejection, and leaves the
// accepted result, its event frame and the merged report untouched.
func TestDuplicateSubmitCompared(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 2)
	envelopes := shardEnvelopes(t, plan)
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
	leases := map[int]string{}
	for range envelopes {
		lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"})
		if err != nil {
			t.Fatal(err)
		}
		leases[lease.Shard.Index] = lease.LeaseID
		body, err := json.Marshal(envelopes[lease.Shard.Index-1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := postResult(ctx, api, lease.LeaseID, body); err != nil {
			t.Fatal(err)
		}
	}
	before := rawFrames(t, ctx, api, created.Job.ID)

	sr := envelopes[0]
	compact, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := sr.Write(&indented); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"identical": compact, "indented": indented.Bytes()} {
		ack, err := postResult(ctx, api, leases[1], body)
		if err != nil {
			t.Fatalf("%s duplicate refused: %v", name, err)
		}
		if !ack.Accepted || !ack.Done {
			t.Fatalf("%s duplicate acknowledged as %+v, want accepted and done", name, ack)
		}
	}

	altered := *sr
	altered.Scenarios = append([]*scenario.Stats(nil), sr.Scenarios...)
	st := *altered.Scenarios[0]
	st.Successes++
	altered.Scenarios[0] = &st
	body, err := json.Marshal(&altered)
	if err != nil {
		t.Fatal(err)
	}
	mismatch0 := mSubmitsRejected.With("mismatch").Value()
	_, err = postResult(ctx, api, leases[1], body)
	var re *RefusedError
	if !errors.As(err, &re) || re.Code != http.StatusConflict {
		t.Fatalf("differing duplicate answered %v, want 409", err)
	}
	if got := mSubmitsRejected.With("mismatch").Value() - mismatch0; got != 1 {
		t.Fatalf("mismatch rejections grew by %d, want 1", got)
	}
	if after := rawFrames(t, ctx, api, created.Job.ID); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("a refused duplicate changed the job's event stream")
	}
	if got, want := mergedReport(t, svc, plan), serialReport(t, plan); got != want {
		t.Fatal("a refused duplicate changed the merged report")
	}
}

// TestSubmitClaimedLengthNotTrusted: a submit whose Content-Length
// claims a terabyte but which sends two bytes is refused with a 4xx once
// its connection ends. The coordinator sizes nothing from the claim,
// keeps serving, and the same lease's real envelope is then accepted.
func TestSubmitClaimedLengthNotTrusted(t *testing.T) {
	t.Parallel()

	plan := builtinPlan(t, "quick", 1)
	envelopes := shardEnvelopes(t, plan)
	svc, err := NewService(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()
	api := NewClient(srv.URL, srv.Client())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := api.CreateSweep(ctx, SweepRequest{Spec: plan.Spec, Shards: plan.Shards}); err != nil {
		t.Fatal(err)
	}
	lease, err := api.Lease(ctx, "", LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	fmt.Fprintf(conn, "POST /v1/leases/%s/result HTTP/1.1\r\nHost: coordinator\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{}",
		lease.LeaseID, int64(1)<<40)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("truncated submit answered %s, want a 4xx", resp.Status)
	}

	ack, err := api.SubmitResult(ctx, lease.LeaseID, envelopes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Accepted || !ack.Done {
		t.Fatalf("real envelope after the truncated submit acknowledged as %+v, want accepted and done", ack)
	}
}

// TestEventsFrameOver16MiB: a data line longer than any fixed scanner
// cap — a shard of some 30,000 family scenarios — reaches the callback
// intact, along with the frames around it.
func TestEventsFrameOver16MiB(t *testing.T) {
	t.Parallel()

	big := bytes.Repeat([]byte("0123456789abcdef"), (17<<20)/16)
	big = append(append([]byte(`{"pad":"`), big...), `"}`...)
	var stream bytes.Buffer
	stream.Write(sseFrame(EventShard, "1", []byte(`{"small":1}`)))
	stream.Write(sseFrame(EventShard, "2", big))
	stream.Write(sseFrame(EventComplete, "job", []byte(`{"id":"job"}`)))
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": []string{"text/event-stream"}},
			Body:       io.NopCloser(bytes.NewReader(stream.Bytes())),
			Request:    req,
		}, nil
	})}
	var got []SweepEvent
	err := NewClient("http://coordinator", hc).Events(context.Background(), "job", func(ev SweepEvent) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != "1" || got[1].ID != "2" || got[2].Type != EventComplete {
		t.Fatalf("stream delivered %d frames, want shard 1, shard 2, complete", len(got))
	}
	if string(got[0].Data) != `{"small":1}` || !bytes.Equal(got[1].Data, big) || string(got[2].Data) != `{"id":"job"}` {
		t.Fatal("a frame's data was not delivered intact")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestLenientLeaseSpecNotShared: a lease whose spec carries an unknown
// field is still accepted — the lease decoder was always lenient — but
// its lenient decode is never memoised, so the same spec bytes in a
// shard envelope are still refused by the strict ReadShardResult.
func TestLenientLeaseSpecNotShared(t *testing.T) {
	t.Parallel()

	spec := `{"name":"lenient-lease-probe","futureField":1,"axes":[{"name":"goal","values":["treasure"]}]}`
	resp := fmt.Sprintf(`{"protocol":%d,"status":"lease","leaseID":"l1","shard":{"index":1,"count":1},`+
		`"plan":{"spec":%s,"shards":1,"seeds":1,"window":10,"baseSeed":1,"fingerprint":"00"}}`, ProtocolVersion, spec)
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(resp)), Request: req}, nil
	})}
	lease, err := NewClient("http://coordinator", hc).Lease(context.Background(), "", LeaseRequest{Worker: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if lease.Plan == nil || lease.Plan.Spec == nil || lease.Plan.Spec.Name != "lenient-lease-probe" {
		t.Fatalf("lenient lease spec not decoded: %+v", lease.Plan)
	}
	envelope := `{"version":1,"fingerprint":"00","spec":` + spec +
		`,"shard":{"index":1,"count":1},"scenarios":[],"summary":{"spec":"lenient-lease-probe","scenarios":0,"trials":0,"errors":0,"successes":0,"successRate":0,"totalRounds":0}}`
	if _, err := scenario.ReadShardResult(strings.NewReader(envelope)); err == nil || !strings.Contains(err.Error(), "futureField") {
		t.Fatalf("envelope whose spec carries an unknown field answered %v, want an unknown-field error", err)
	}
}
