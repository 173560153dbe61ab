package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// specMemoSize bounds the shared spec memo. Every envelope and lease of
// one job repeats that job's spec, but a coordinator serving several
// jobs at once sees their submits interleave, and so do fair-share
// workers' leases: a single entry would miss on most of them, while a
// handful of entries leaves only the first decode of each spec.
const specMemoSize = 8

// specMemo is the process-wide memo behind SharedSpec: strictly decoded
// specs keyed by the exact JSON bytes they were decoded from, most
// recently used first.
var specMemo struct {
	mu      sync.Mutex
	entries []specEntry
}

type specEntry struct {
	raw  []byte
	spec *Spec
}

// SharedSpec decodes one JSON spec value strictly — unknown fields are
// rejected, as ReadSpec and ReadShardResult do — through a process-wide
// memo keyed by the exact bytes, so the spec repeated in every envelope
// and lease of a job is decoded once per process. JSON null decodes to
// nil. The spec is not validated.
//
// The returned spec is shared by every caller that passed the same
// bytes and must be treated as read-only: copy it (decode it afresh)
// before calling a mutating method such as Restrict.
//
// The memo is keyed by content, never by a fingerprint or a length: the
// fingerprint in an envelope is only its sender's claim about the spec,
// and distinct specs can share a length. It holds strict decodes only,
// so bytes a lenient caller accepted can never satisfy a strict one.
func SharedSpec(raw []byte) (*Spec, error) {
	if s := lookupSpec(raw); s != nil {
		return s, nil
	}
	var s *Spec
	if err := decodeSpecStrict(raw, &s); err != nil || s == nil {
		return nil, err
	}
	return storeSpec(raw, s), nil
}

func lookupSpec(raw []byte) *Spec {
	specMemo.mu.Lock()
	defer specMemo.mu.Unlock()
	for i, e := range specMemo.entries {
		if bytes.Equal(e.raw, raw) {
			copy(specMemo.entries[1:i+1], specMemo.entries[:i])
			specMemo.entries[0] = e
			return e.spec
		}
	}
	return nil
}

// storeSpec inserts a fresh decode at the front, evicting the least
// recently used entry when full. If a concurrent caller stored the same
// bytes first, its spec wins, so every caller ends up sharing one.
func storeSpec(raw []byte, s *Spec) *Spec {
	specMemo.mu.Lock()
	defer specMemo.mu.Unlock()
	for _, e := range specMemo.entries {
		if bytes.Equal(e.raw, raw) {
			return e.spec
		}
	}
	if len(specMemo.entries) < specMemoSize {
		specMemo.entries = append(specMemo.entries, specEntry{})
	}
	copy(specMemo.entries[1:], specMemo.entries)
	specMemo.entries[0] = specEntry{raw: bytes.Clone(raw), spec: s}
	return s
}

// decodeSpecStrict decodes exactly one JSON value into v, rejecting
// unknown fields and trailing data.
func decodeSpecStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("scenario: trailing data after spec")
	}
	return nil
}

// rawSpecs collects every raw value of an envelope's "spec" key. The
// JSON decoder matches keys case-insensitively and lets a key repeat, so
// an envelope can carry several; resolve folds them exactly as a plain
// decode into a *Spec field would.
type rawSpecs [][]byte

func (r *rawSpecs) UnmarshalJSON(b []byte) error {
	*r = append(*r, bytes.Clone(b))
	return nil
}

// resolve returns the envelope's spec: through SharedSpec in the normal
// single-value case. A repeated key decodes each value into the same
// pointer in turn, merging objects field by field, so it is replayed
// that way and not memoised.
func (r rawSpecs) resolve() (*Spec, error) {
	if len(r) == 1 {
		return SharedSpec(r[0])
	}
	var s *Spec
	for _, raw := range r {
		if err := decodeSpecStrict(raw, &s); err != nil {
			return nil, err
		}
	}
	return s, nil
}
