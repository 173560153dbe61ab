// Package msgbuf provides the allocation-discipline substrate for the
// engine's hot path: append-style integer formatting, a cached small-int
// string table, and a capped byte-slice interner.
//
// The three-party round loop formats the same handful of states and
// messages millions of times per sweep. fmt.Sprintf allocates on every
// call; the helpers here let worlds, servers and user strategies build
// those strings into reusable buffers and share the resulting immutable
// strings, so the steady-state loop allocates nothing. All helpers
// produce byte-for-byte the output of the fmt/strconv calls they replace
// — callers rely on that to keep reports and histories byte-identical.
//
// The package is dependency-free by design so every layer (comm, goal
// packages, the engine) can use it.
package msgbuf

import (
	"strconv"
	"strings"
)

// Cached decimal strings cover the small magnitudes message protocols
// actually use (positions, forces, chunk indices, round counts).
const (
	minCached = -1024
	maxCached = 4096
)

var intCache [maxCached - minCached + 1]string

func init() {
	for n := minCached; n <= maxCached; n++ {
		intCache[n-minCached] = strconv.Itoa(n)
	}
}

// Itoa returns strconv.Itoa(n) without allocating for small magnitudes
// (|n| within the protocol-typical range); larger values fall back to
// strconv.
func Itoa(n int) string {
	if n >= minCached && n <= maxCached {
		return intCache[n-minCached]
	}
	return strconv.Itoa(n)
}

// AppendInt appends the decimal form of n to dst, exactly as
// strconv.Itoa would print it.
func AppendInt(dst []byte, n int) []byte {
	return strconv.AppendInt(dst, int64(n), 10)
}

// AppendUint appends the decimal form of n to dst.
func AppendUint(dst []byte, n uint64) []byte {
	return strconv.AppendUint(dst, n, 10)
}

// Interner deduplicates byte slices into shared immutable strings. It is
// the engine's backing for world-state interning: high-repetition states
// (a vault's two states, a plant's position lattice) collapse to one
// string allocation each, and lookups of already-seen bytes allocate
// nothing (the map index is a zero-copy []byte→string conversion).
//
// The entry count is capped so pathological state spaces (a counter in
// every snapshot) cannot grow the table without bound. Eviction is
// generational: when the table is full, it is cleared and rebuilt from
// current traffic, so one high-cardinality workload (a recorded
// learning run's ever-growing counters) cannot permanently disable
// interning for every workload that shares the table afterwards —
// interning is a cache, and dropping entries only costs re-allocation,
// never correctness. An Interner is not safe for concurrent use; the
// engine keeps one per worker. The zero value is ready to use with
// DefaultInternCap.
type Interner struct {
	m   map[string]string
	cap int
}

// DefaultInternCap bounds an Interner constructed with cap <= 0.
const DefaultInternCap = 4096

// NewInterner returns an interner holding at most cap distinct strings;
// cap <= 0 means DefaultInternCap.
func NewInterner(cap int) *Interner {
	if cap <= 0 {
		cap = DefaultInternCap
	}
	return &Interner{cap: cap}
}

// Intern returns a string equal to b, shared across calls whenever the
// same bytes were seen before (and table space permits).
func (in *Interner) Intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string, 16)
		if in.cap <= 0 {
			in.cap = DefaultInternCap
		}
	}
	if len(in.m) >= in.cap {
		// Generational eviction: restart from current traffic rather
		// than serving a table frozen on whatever filled it first.
		clear(in.m)
	}
	in.m[s] = s
	return s
}

// Len reports the number of distinct strings currently interned.
func (in *Interner) Len() int { return len(in.m) }

// Arena is a bump allocator for immutable strings whose values never
// repeat — message streams with unbounded identifiers (a learning run's
// query ids) that no cache or interner can collapse. Individually such
// strings cost one allocation each; an Arena packs them back to back
// into one shared block, so a whole execution's worth costs one block
// allocation.
//
// Safety: the arena only ever appends. Bytes underlying a returned
// string are never rewritten — Reset abandons the current block to the
// strings already carved from it and starts a fresh one — so returned
// strings stay valid forever, exactly like individually allocated ones.
// The block is a strings.Builder, whose String views are the language's
// sanctioned way to expose a growing buffer as immutable strings. An
// Arena is not safe for concurrent use. The zero value is ready to use.
type Arena struct {
	b   strings.Builder
	off int // start of the not-yet-returned tail of the block
	hwm int // high-water mark: bytes used last cycle, sizes the next block
}

// Append copies p into the arena and returns it as a string.
func (a *Arena) Append(p []byte) string {
	if a.b.Cap() == 0 {
		// Fresh block: pre-size to the previous cycle's usage so a
		// steady-state caller pays exactly one allocation per Reset
		// cycle instead of a doubling growth sequence.
		n := a.hwm
		if n < 256 {
			n = 256
		}
		a.b.Grow(n)
	}
	a.b.Write(p)
	s := a.b.String()
	out := s[a.off:]
	a.off = len(s)
	return out
}

// Reset starts a fresh block, abandoning the current one to the strings
// already returned (which remain valid). Call it wherever the owning
// strategy's Reset runs, so each execution reuses the arena's sizing
// without any execution's strings aliasing another's storage.
func (a *Arena) Reset() {
	if used := a.b.Len(); used > a.hwm {
		a.hwm = used
	}
	a.b.Reset()
	a.off = 0
}

// Memo1 is a single-entry memo for pure functions on the hot path: the
// common steady state — a strategy re-sending one command every other
// round — hits the same key repeatedly, so one slot suffices. The zero
// value is ready to use.
type Memo1[K comparable, V any] struct {
	key K
	val V
	ok  bool
}

// Get returns the memoized value for k, if that is what is stored.
func (m *Memo1[K, V]) Get(k K) (V, bool) {
	if m.ok && m.key == k {
		return m.val, true
	}
	var zero V
	return zero, false
}

// Put stores v as the value for k, displacing any previous entry.
func (m *Memo1[K, V]) Put(k K, v V) {
	m.key, m.val, m.ok = k, v, true
}

// Do returns f(k), calling f only when k is not the stored key and then
// storing the result in place of the previous entry. f must be pure: a
// hit returns what f returned for an equal key.
func (m *Memo1[K, V]) Do(k K, f func(K) V) V {
	if m.ok && m.key == k {
		return m.val
	}
	v := f(k)
	m.key, m.val, m.ok = k, v, true
	return v
}

// Reset clears the memo (dropping any references its entry holds).
func (m *Memo1[K, V]) Reset() {
	var zero Memo1[K, V]
	*m = zero
}

// Table is a lazily-allocated, entry-capped map memo for pure functions
// whose hot keys cycle through a small set (a transfer user's K store
// commands, a dialect's translations). Past the cap, Put is a no-op:
// lookups stay correct, new keys just stop being remembered. The zero
// value is ready to use with DefaultTableCap.
type Table[K comparable, V any] struct {
	m   map[K]V
	cap int
}

// DefaultTableCap bounds a Table that never declared a cap.
const DefaultTableCap = 128

// NewTable returns a table holding at most cap entries; cap <= 0 means
// DefaultTableCap.
func NewTable[K comparable, V any](cap int) *Table[K, V] {
	if cap <= 0 {
		cap = DefaultTableCap
	}
	return &Table[K, V]{cap: cap}
}

// Get returns the memoized value for k.
func (t *Table[K, V]) Get(k K) (V, bool) {
	v, ok := t.m[k]
	return v, ok
}

// Put stores v for k if the table has room.
func (t *Table[K, V]) Put(k K, v V) {
	if t.m == nil {
		t.m = make(map[K]V, 8)
		if t.cap <= 0 {
			t.cap = DefaultTableCap
		}
	}
	if len(t.m) < t.cap {
		t.m[k] = v
	}
}

// Reset clears the table, keeping its storage for reuse.
func (t *Table[K, V]) Reset() { clear(t.m) }
