package dialect

import (
	"strings"
	"testing"

	"repro/internal/comm"
)

func FuzzPermutationRoundTrip(f *testing.F) {
	fam, err := NewPermutationFamily(8, 42)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("PRINT hello 123", uint8(3))
	f.Add("", uint8(0))
	f.Add("\x00\xff binary-ish", uint8(7))
	f.Fuzz(func(t *testing.T, s string, idx uint8) {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(s)
		if got := d.Decode(d.Encode(m)); got != m {
			t.Fatalf("round trip broke: %q → %q", m, got)
		}
	})
}

func FuzzRotRoundTrip(f *testing.F) {
	fam, err := NewRotFamily(26)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("The quick brown fox 0123456789", uint8(13))
	f.Fuzz(func(t *testing.T, s string, idx uint8) {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(s)
		if got := d.Decode(d.Encode(m)); got != m {
			t.Fatalf("round trip broke: %q → %q", m, got)
		}
	})
}

func FuzzWordRoundTrip(f *testing.F) {
	fam, err := NewWordFamily([]string{"PRINT", "STATUS", "ACK", "READY"}, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("PRINT doc with spaces", uint8(2))
	f.Add("w3_0 payload", uint8(3))
	f.Add(" PRINT  ACK ", uint8(5))
	f.Fuzz(func(t *testing.T, s string, idx uint8) {
		d := fam.Dialect(int(idx) % fam.Size())
		m := comm.Message(s)
		enc := d.Encode(m)
		if want := splitJoinEncode(d.(*wordMap).forward, m); enc != want {
			t.Fatalf("encode %q = %q, split/map/join reference gives %q", m, enc, want)
		}
		if got := d.Decode(enc); got != m {
			t.Fatalf("round trip broke: %q → %q", m, got)
		}
	})
}

// splitJoinEncode is the reference word translation mapTokens must match
// byte for byte: split on " ", map each token, re-join.
func splitJoinEncode(table map[string]string, m comm.Message) comm.Message {
	if m.Empty() {
		return m
	}
	tokens := strings.Split(string(m), " ")
	for i, tok := range tokens {
		if repl, ok := table[tok]; ok {
			tokens[i] = repl
		}
	}
	return comm.Message(strings.Join(tokens, " "))
}
