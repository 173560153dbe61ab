package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// specSeeds are the FuzzSpecJSON seed inputs: valid flat and composed
// envelopes plus near-misses the decoder must reject without panicking.
var specSeeds = []string{
	`{"name":"flat","axes":[{"name":"goal","values":["treasure"]}],"seeds":2}`,
	`{"name":"composed","blocks":[` +
		`{"axes":[{"name":"goal","values":["fsm"]},{"name":"machine","values":["0","1"]}]},` +
		`{"axes":[{"name":"goal","values":["treasure"]}]}` +
		`],"seeds":1,"window":10}`,
	`{"name":"both","axes":[{"name":"a","values":["x"]}],"blocks":[{"axes":[{"name":"a","values":["x"]}]}]}`,
	`{"name":"typo","axez":[{"name":"a","values":["x"]}]}`,
	`{"name":"empty-block","blocks":[{"axes":[]}]}`,
	`{"name":"dup","axes":[{"name":"a","values":["x"]},{"name":"a","values":["y"]}]}`,
	`not json at all`,
	`{"name":""}`,
}

// FuzzSpecJSON feeds arbitrary bytes through the spec decoder. ReadSpec
// must never panic; when it accepts an input, the spec must survive
// matrix construction (a clean error is fine — overflow does that), its
// canonical form must be a fixpoint of Canonical, a serialize/decode
// round trip must preserve the fingerprint, and growing the envelope an
// unknown field must flip acceptance into rejection.
func FuzzSpecJSON(f *testing.F) {
	for _, s := range specSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ReadSpec accepted a spec Validate rejects: %v", verr)
		}
		if _, merr := NewMatrix(spec); merr != nil {
			// A clean refusal (e.g. cross-product overflow) is fine; the
			// fingerprint below must still behave.
			t.Logf("matrix refused: %v", merr)
		}
		canon := spec.Canonical()
		fp := Fingerprint(spec, "r", 1, 1, 1, 0, 0)
		if got := Fingerprint(canon.Canonical(), "r", 1, 1, 1, 0, 0); got != fp {
			t.Fatalf("Canonical is not a fingerprint fixpoint: %s → %s", fp, got)
		}

		// Round trip: what the CLI writes, a reader must accept back,
		// and it must name the same sweep.
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := ReadSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-read of %s: %v", enc, err)
		}
		if got := Fingerprint(back, "r", 1, 1, 1, 0, 0); got != fp {
			t.Fatalf("round trip changed fingerprint: %s → %s", fp, got)
		}

		// Unknown fields must stay fatal: inject one into the accepted
		// envelope and require rejection.
		var obj map[string]json.RawMessage
		if json.Unmarshal(data, &obj) == nil && obj != nil {
			obj["zzzUnknownField"] = json.RawMessage(`1`)
			grown, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSpec(bytes.NewReader(grown)); err == nil {
				t.Fatalf("unknown field accepted in %s", grown)
			}
		}
	})
}

// shardSeed builds a minimal valid shard envelope for the fuzz corpus.
func shardSeed(f *testing.F) []byte {
	f.Helper()
	sr := &ShardResult{
		Version:     ShardFormatVersion,
		Fingerprint: "00112233aabbccdd",
		Spec: &Spec{Name: "seed", Axes: []Axis{
			{Name: "goal", Values: []string{"treasure"}},
		}},
		Shard: Shard{Index: 1, Count: 2},
		Scenarios: []*Stats{{
			ID:     "treasure-0000000000000000",
			Axes:   []AxisValue{{Name: "goal", Value: "treasure"}},
			Trials: 1,
		}},
		Summary: &Summary{Spec: "seed", Scenarios: 1, Trials: 1},
	}
	var buf bytes.Buffer
	if err := sr.Write(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadShardResult feeds arbitrary bytes through the shard-envelope
// decoder: never panic, accept exactly what a plain strict decode of the
// whole envelope accepts and decode it to an equal value (the shared
// spec memo must be invisible), and anything accepted must validate,
// survive a write/read round trip, and keep rejecting unknown fields.
func FuzzReadShardResult(f *testing.F) {
	valid := shardSeed(f)
	f.Add(valid)
	f.Add(bytes.Replace(valid, []byte(`"version": 1`), []byte(`"version": 99`), 1))
	f.Add(bytes.Replace(valid, []byte(`"index": 1`), []byte(`"index": 7`), 1))
	// Specs of one length but different content: a memo keyed on
	// anything less than the bytes would hand one the other's spec.
	f.Add(bytes.Replace(valid, []byte(`"name": "seed"`), []byte(`"name": "sEEd"`), 1))
	f.Add(bytes.Replace(valid, []byte(`"treasure"`), []byte(`"printing"`), 1))
	// A repeated spec key merges into one spec in a plain decode.
	f.Add(bytes.Replace(valid, []byte(`"spec": {`), []byte(`"spec": {"name": "first", "seeds": 3}, "spec": {`), 1))
	f.Add(bytes.Replace(valid, []byte(`"spec": {`), []byte(`"spec": null, "Spec": {`), 1))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := ReadShardResult(bytes.NewReader(data))
		ref, refErr := plainReadShardResult(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadShardResult error %v, plain strict decode error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(sr, ref) {
			got, _ := json.Marshal(sr)
			want, _ := json.Marshal(ref)
			t.Fatalf("ReadShardResult decoded %s\nplain strict decode %s", got, want)
		}
		if verr := sr.Validate(); verr != nil {
			t.Fatalf("ReadShardResult accepted an envelope Validate rejects: %v", verr)
		}
		var buf bytes.Buffer
		if err := sr.Write(&buf); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		back, err := ReadShardResult(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.Fingerprint != sr.Fingerprint || back.Shard != sr.Shard ||
			len(back.Scenarios) != len(sr.Scenarios) {
			t.Fatal("write/read round trip changed the envelope framing")
		}
		var obj map[string]json.RawMessage
		if json.Unmarshal(data, &obj) == nil && obj != nil {
			obj["zzzUnknownField"] = json.RawMessage(`1`)
			grown, err := json.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ReadShardResult(bytes.NewReader(grown)); err == nil {
				t.Fatalf("unknown field accepted in %s", grown)
			}
		}
	})
}
