package msgbuf

import (
	"fmt"
	"strconv"
	"testing"
)

func TestItoaMatchesStrconv(t *testing.T) {
	for _, n := range []int{-2000, -1025, -1024, -1, 0, 1, 99, 100, 1024, 4096, 4097, 1 << 30} {
		if got, want := Itoa(n), strconv.Itoa(n); got != want {
			t.Errorf("Itoa(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestItoaCachedNoAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = Itoa(-1024)
		_ = Itoa(0)
		_ = Itoa(4096)
	})
	if allocs != 0 {
		t.Errorf("cached Itoa allocated %.1f times per run, want 0", allocs)
	}
}

func TestAppendMatchesSprintf(t *testing.T) {
	var buf []byte
	for _, n := range []int{-40, 0, 7, 12345} {
		buf = buf[:0]
		buf = append(buf, "pos="...)
		buf = AppendInt(buf, n)
		if got, want := string(buf), fmt.Sprintf("pos=%d", n); got != want {
			t.Errorf("AppendInt: got %q, want %q", got, want)
		}
	}
	buf = AppendUint(buf[:0], 18446744073709551615)
	if got := string(buf); got != "18446744073709551615" {
		t.Errorf("AppendUint: got %q", got)
	}
}

func TestInternerSharesAndCaps(t *testing.T) {
	in := NewInterner(2)
	a1 := in.Intern([]byte("vault=open"))
	a2 := in.Intern([]byte("vault=open"))
	if a1 != a2 {
		t.Fatal("interner returned unequal strings for equal bytes")
	}
	b := in.Intern([]byte("vault=locked"))
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	// Past the cap: generational eviction clears the table and the new
	// entry starts the next generation — still correct bytes throughout.
	c := in.Intern([]byte("overflow"))
	if c != "overflow" || in.Len() != 1 {
		t.Fatalf("generational Intern: got %q, Len %d (want a fresh 1-entry generation)", c, in.Len())
	}
	c2 := in.Intern([]byte("overflow"))
	if c2 != c || in.Len() != 1 {
		t.Fatal("new generation does not serve its own entries")
	}
	if a1 != "vault=open" || b != "vault=locked" {
		t.Fatal("interned strings corrupted")
	}
}

func TestInternerHitNoAlloc(t *testing.T) {
	in := NewInterner(0)
	key := []byte("state=42")
	in.Intern(key)
	allocs := testing.AllocsPerRun(100, func() { _ = in.Intern(key) })
	if allocs != 0 {
		t.Errorf("interner hit allocated %.1f times per run, want 0", allocs)
	}
}

func TestMemo1(t *testing.T) {
	var m Memo1[string, int]
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty memo returned a hit")
	}
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v after Put", v, ok)
	}
	m.Put("b", 2) // displaces a
	if _, ok := m.Get("a"); ok {
		t.Fatal("displaced key still hit")
	}
	if v, ok := m.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d,%v", v, ok)
	}
	m.Reset()
	if _, ok := m.Get("b"); ok {
		t.Fatal("reset memo returned a hit")
	}
}

func TestMemo1Do(t *testing.T) {
	var m Memo1[string, int]
	calls := 0
	f := func(s string) int { calls++; return len(s) }
	for _, tc := range []struct {
		k     string
		calls int
	}{{"ab", 1}, {"ab", 1}, {"cd", 2}, {"ab", 3}, {"", 4}, {"", 4}} {
		if got := m.Do(tc.k, f); got != len(tc.k) || calls != tc.calls {
			t.Fatalf("Do(%q) = %d after %d calls, want %d after %d", tc.k, got, calls, len(tc.k), tc.calls)
		}
	}
}

func TestTableCapAndReset(t *testing.T) {
	tb := NewTable[string, int](2)
	tb.Put("a", 1)
	tb.Put("b", 2)
	tb.Put("c", 3) // past the cap: dropped
	if _, ok := tb.Get("c"); ok {
		t.Fatal("capped table remembered a key past its cap")
	}
	if v, ok := tb.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	tb.Reset()
	if _, ok := tb.Get("a"); ok {
		t.Fatal("reset table returned a hit")
	}
	tb.Put("d", 4) // storage reused, cap still enforced from scratch
	if v, ok := tb.Get("d"); !ok || v != 4 {
		t.Fatalf("Get(d) after reset = %d,%v", v, ok)
	}

	var zero Table[string, int]
	zero.Put("x", 9)
	if v, ok := zero.Get("x"); !ok || v != 9 {
		t.Fatalf("zero-value table Get(x) = %d,%v", v, ok)
	}
}

func TestTableHitNoAlloc(t *testing.T) {
	var tb Table[string, string]
	tb.Put("k", "v")
	allocs := testing.AllocsPerRun(100, func() { tb.Get("k") })
	if allocs != 0 {
		t.Errorf("table hit allocated %.1f times per run, want 0", allocs)
	}
}
