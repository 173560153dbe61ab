package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// memoEnvelope is a minimal valid compact envelope for shard idx/2 of a
// one-axis spec named name.
func memoEnvelope(name string, idx int) []byte {
	return []byte(fmt.Sprintf(`{"version":1,"fingerprint":"00112233aabbccdd",`+
		`"spec":{"name":%q,"axes":[{"name":"goal","values":["treasure"]}]},`+
		`"shard":{"index":%d,"count":2},"scenarios":[],`+
		`"summary":{"spec":%q,"scenarios":0,"trials":0,"errors":0,"successes":0,"successRate":0,"totalRounds":0}}`,
		name, idx, name))
}

// plainReadShardResult is the reference decoder: one strict decode of
// the whole envelope, spec included, with no memo.
func plainReadShardResult(data []byte) (*ShardResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sr ShardResult
	if err := dec.Decode(&sr); err != nil {
		return nil, err
	}
	if err := sr.Validate(); err != nil {
		return nil, err
	}
	return &sr, nil
}

// TestSharedSpecStrictOnly: spec bytes carrying an unknown field are
// refused however often they are seen, and a lenient decode of the same
// bytes elsewhere cannot make a strict reader accept them.
func TestSharedSpecStrictOnly(t *testing.T) {
	t.Parallel()

	raw := []byte(`{"name":"strict-probe","futureField":1,"axes":[{"name":"goal","values":["treasure"]}]}`)
	var lenient Spec
	if err := json.Unmarshal(raw, &lenient); err != nil || lenient.Name != "strict-probe" {
		t.Fatalf("test setup: lenient decode failed: %v", err)
	}
	envelope := bytes.Replace(memoEnvelope("strict-probe", 1),
		[]byte(`{"name":"strict-probe","axes"`), []byte(`{"name":"strict-probe","futureField":1,"axes"`), 1)
	for i := 0; i < 2; i++ {
		if _, err := SharedSpec(raw); err == nil || !strings.Contains(err.Error(), "futureField") {
			t.Fatalf("SharedSpec accepted an unknown field: %v", err)
		}
		if _, err := ReadShardResult(bytes.NewReader(envelope)); err == nil || !strings.Contains(err.Error(), "futureField") {
			t.Fatalf("ReadShardResult accepted a spec with an unknown field: %v", err)
		}
	}
	if _, err := SharedSpec(append(bytes.Clone(raw[:len(raw)-1]), `}{}`...)); err == nil {
		t.Fatal("SharedSpec accepted trailing data")
	}
}

// TestReadShardResultMissingSpec: a null or absent spec still fails
// validation, whatever the memo holds.
func TestReadShardResultMissingSpec(t *testing.T) {
	t.Parallel()

	valid := memoEnvelope("missing-probe", 1)
	if _, err := ReadShardResult(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	spec := `"spec":{"name":"missing-probe","axes":[{"name":"goal","values":["treasure"]}]},`
	for name, data := range map[string][]byte{
		"null":   bytes.Replace(valid, []byte(spec), []byte(`"spec":null,`), 1),
		"absent": bytes.Replace(valid, []byte(spec), nil, 1),
	} {
		if bytes.Equal(data, valid) {
			t.Fatalf("test setup: %s: spec not found in envelope", name)
		}
		if _, err := ReadShardResult(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "has no spec") {
			t.Fatalf("%s spec answered %v, want \"has no spec\"", name, err)
		}
	}
}

// TestShardResultsShareSpec: every envelope of one sweep, as a worker
// submits it, decodes to the same *Spec, equal to the spec written.
func TestShardResultsShareSpec(t *testing.T) {
	t.Parallel()

	spec, err := BuiltinSpec("family")
	if err != nil {
		t.Fatal(err)
	}
	var first *Spec
	for idx := 1; idx <= 4; idx++ {
		sr := &ShardResult{
			Version:     ShardFormatVersion,
			Fingerprint: "00112233aabbccdd",
			Spec:        spec,
			Shard:       Shard{Index: idx, Count: 4},
			Summary:     &Summary{Spec: spec.Name},
		}
		body, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadShardResult(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got.Spec
			if !reflect.DeepEqual(first, spec) {
				t.Fatal("decoded spec differs from the spec written")
			}
		} else if got.Spec != first {
			t.Fatalf("shard %d decoded its own spec instead of sharing the first one", idx)
		}
	}
}

// TestSharedSpecConcurrent: concurrent decodes over more distinct specs
// than the memo holds agree with the plain decoder (run under -race).
// Deliberately not parallel: it churns the process-wide memo, which
// TestShardResultsShareSpec expects to keep its spec.
func TestSharedSpecConcurrent(t *testing.T) {
	const specs = specMemoSize + 4
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := memoEnvelope(fmt.Sprintf("concurrent-%02d", (g+i)%specs), 1+i%2)
				got, err := ReadShardResult(bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				want, err := plainReadShardResult(data)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("memoised decode of %s differs from a plain decode", data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	specMemo.mu.Lock()
	n := len(specMemo.entries)
	specMemo.mu.Unlock()
	if n > specMemoSize {
		t.Fatalf("spec memo holds %d entries, bound is %d", n, specMemoSize)
	}
}
