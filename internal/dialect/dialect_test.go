package dialect

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

func families(t *testing.T) map[string]*Family {
	t.Helper()

	rotF, err := NewRotFamily(8)
	if err != nil {
		t.Fatal(err)
	}
	permF, err := NewPermutationFamily(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	wordF, err := NewWordFamily([]string{"PRINT", "STATUS", "ACK"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Family{"rot": rotF, "perm": permF, "words": wordF}
}

func TestRoundTripAllFamilies(t *testing.T) {
	t.Parallel()

	msgs := []comm.Message{
		"", "PRINT hello world 123", "STATUS", "ACK doc42",
		"Mixed CASE and 0123456789", "payload-not-in-vocab",
	}
	for name, fam := range families(t) {
		for i := 0; i < fam.Size(); i++ {
			d := fam.Dialect(i)
			for _, m := range msgs {
				if got := d.Decode(d.Encode(m)); got != m {
					t.Errorf("%s[%d]: Decode(Encode(%q)) = %q", name, i, m, got)
				}
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	t.Parallel()

	fam, err := NewPermutationFamily(16, 99)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []byte, idx uint8) bool {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(raw)
		return d.Decode(d.Encode(m)) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDialectZeroIsIdentity(t *testing.T) {
	t.Parallel()

	for name, fam := range families(t) {
		d := fam.Dialect(0)
		m := comm.Message("PRINT abc 123")
		if got := d.Encode(m); got != m {
			t.Errorf("%s[0].Encode changed message: %q", name, got)
		}
	}
}

func TestDialectsMutuallyUnintelligible(t *testing.T) {
	t.Parallel()

	// For every pair i != j, encoding with i and decoding with j must
	// not recover the plain command (otherwise the class collapses).
	m := comm.Message("PRINT document")
	for name, fam := range families(t) {
		collisions := 0
		for i := 0; i < fam.Size(); i++ {
			for j := 0; j < fam.Size(); j++ {
				if i == j {
					continue
				}
				got := fam.Dialect(j).Decode(fam.Dialect(i).Encode(m))
				if got == m {
					collisions++
				}
			}
		}
		if collisions > 0 {
			t.Errorf("%s: %d cross-dialect collisions on %q", name, collisions, m)
		}
	}
}

func TestWordFamilyPreservesPayload(t *testing.T) {
	t.Parallel()

	fam, err := NewWordFamily([]string{"PRINT"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := fam.Dialect(2)
	enc := d.Encode("PRINT report.txt")
	if !strings.HasSuffix(string(enc), " report.txt") {
		t.Fatalf("payload token was transformed: %q", enc)
	}
	if strings.HasPrefix(string(enc), "PRINT") {
		t.Fatalf("verb not transformed: %q", enc)
	}
}

// TestWordEncodeMatchesSplitJoin pins the word dialects' translation to
// the split/map/join reference byte for byte — empty tokens, leading and
// trailing spaces included — and its cost: one allocation for a message
// that changes, none for one that does not.
func TestWordEncodeMatchesSplitJoin(t *testing.T) {
	t.Parallel()

	fam, err := NewWordFamily([]string{"PRINT", "STATUS", "ACK"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []comm.Message{
		"", " ", "PRINT", "PRINT report7", "STATUS", "ACK ACK", " PRINT", "PRINT ",
		"PRINT  doc", "w2_0 payload", "payload only", "PRINTX STATUS ACKS",
	}
	for i := 0; i < fam.Size(); i++ {
		d := fam.Dialect(i).(*wordMap)
		for _, m := range msgs {
			if got, want := d.Encode(m), splitJoinEncode(d.forward, m); got != want {
				t.Errorf("dialect %d: Encode(%q) = %q, reference %q", i, m, got, want)
			}
		}
	}
	d := fam.Dialect(2)
	if n := testing.AllocsPerRun(100, func() { d.Encode("PRINT report7") }); n != 1 {
		t.Errorf("translating a message allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Encode("payload only") }); n != 0 {
		t.Errorf("an untouched message allocates %.0f times, want 0", n)
	}
}

func TestFamilyIndexWraps(t *testing.T) {
	t.Parallel()

	fam, err := NewRotFamily(4)
	if err != nil {
		t.Fatal(err)
	}
	if fam.Dialect(4).ID() != fam.Dialect(0).ID() {
		t.Error("positive wrap failed")
	}
	if fam.Dialect(-1).ID() != fam.Dialect(3).ID() {
		t.Error("negative wrap failed")
	}
}

func TestNewFamilyValidation(t *testing.T) {
	t.Parallel()

	if _, err := NewFamily("empty", nil); err == nil {
		t.Error("empty family accepted")
	}
	if _, err := NewRotFamily(0); err == nil {
		t.Error("rot family of size 0 accepted")
	}
	if _, err := NewPermutationFamily(0, 1); err == nil {
		t.Error("perm family of size 0 accepted")
	}
	if _, err := NewWordFamily(nil, 3); err == nil {
		t.Error("word family without vocabulary accepted")
	}
	if _, err := NewWordFamily([]string{"A"}, 0); err == nil {
		t.Error("word family of size 0 accepted")
	}
}

func TestPermutationFamilyDeterministic(t *testing.T) {
	t.Parallel()

	a, err := NewPermutationFamily(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPermutationFamily(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := comm.Message("The quick Brown fox 42")
	for i := 0; i < 8; i++ {
		if a.Dialect(i).Encode(m) != b.Dialect(i).Encode(m) {
			t.Fatalf("dialect %d differs across identically-seeded families", i)
		}
	}
}

func TestIdentityDialect(t *testing.T) {
	t.Parallel()

	d := Identity(3)
	if d.ID() != 3 {
		t.Fatal("wrong id")
	}
	if d.Encode("x") != "x" || d.Decode("y") != "y" {
		t.Fatal("identity transformed a message")
	}
}
