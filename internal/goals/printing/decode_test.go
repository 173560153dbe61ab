package printing

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/sensing"
	"repro/internal/xrand"
)

// refCandidate is the unmemoised reference candidate: it parses the
// announcement afresh every round and encodes its command on demand.
type refCandidate struct {
	d       dialect.Dialect
	task    string
	elapsed int
}

func (c *refCandidate) step(in comm.Inbox) comm.Outbox {
	if task, _, ok := ParseWorldMsg(in.FromWorld); ok {
		c.task = task
	}
	if c.task == "" {
		return comm.Outbox{}
	}
	defer func() { c.elapsed++ }()
	if c.elapsed%2 == 0 {
		return comm.Outbox{ToServer: c.d.Encode(comm.Message("PRINT " + c.task))}
	}
	return comm.Outbox{}
}

// refSense is the unmemoised reference print sense: patience over a
// predicate that parses the announcement afresh every round.
func refSense(patience int) sensing.Sense {
	return sensing.Patience(sensing.New(func(rv comm.RoundView) bool {
		task, printed, ok := ParseWorldMsg(rv.In.FromWorld)
		return ok && task != "" && printed == task
	}), patience)
}

// announcementSequences are the world-message streams the parity test
// replays: repeats, A/B alternation between equal-length messages,
// malformed and empty messages, messages sharing a prefix, a task change
// and a random mix of all of them.
func announcementSequences() map[string][]comm.Message {
	rep := func(m comm.Message, n int) []comm.Message {
		out := make([]comm.Message, n)
		for i := range out {
			out[i] = m
		}
		return out
	}
	var alt []comm.Message
	for i := 0; i < 12; i++ {
		alt = append(alt, "TASK memo42|PRINTED memo42", "TASK memo42|PRINTED memo43")
	}
	pool := []comm.Message{
		"", "TASK memo42|PRINTED ", "TASK memo42|PRINTED memo42", "TASK memo42|PRINTED memo43",
		"TASK memo42|PRINTED memo421", "TASK memo4|PRINTED memo4", "TASK |PRINTED ",
		"TASK memo42", "PRINTED memo42|TASK memo42", "garbage", "TASK thesis3|PRINTED memo42",
	}
	r := xrand.New(5)
	mix := make([]comm.Message, 600)
	for i := range mix {
		mix[i] = pool[r.Intn(len(pool))]
	}
	return map[string][]comm.Message{
		"repeat":      rep("TASK report7|PRINTED report7", 20),
		"alternate":   alt,
		"malformed":   {"", "TASK memo42|PRINTED ", "TASK memo42", "garbage", "", "TASK |PRINTED ", "TASK memo42|PRINTED memo42"},
		"prefix":      {"TASK memo4|PRINTED memo4", "TASK memo42|PRINTED memo42", "TASK memo42|PRINTED memo421", "TASK memo42|PRINTED memo42"},
		"task-change": append(rep("TASK memo42|PRINTED ", 7), rep("TASK thesis3|PRINTED memo42", 7)...),
		"random-mix":  mix,
	}
}

// TestDecodeParity drives the memoised candidate and sense side by side
// with unmemoised references over the same world-message streams, across
// a Reset, and requires identical outputs and indications every round.
func TestDecodeParity(t *testing.T) {
	t.Parallel()

	d := wordFam(t, 3).Dialect(2)
	for name, seq := range announcementSequences() {
		c := &Candidate{D: d}
		s := Sense(3)
		ref := &refCandidate{d: d}
		refS := refSense(3)
		c.Reset(xrand.New(1))
		for pass := 0; pass < 2; pass++ {
			for round, m := range seq {
				out, err := c.Step(comm.Inbox{FromWorld: m})
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.step(comm.Inbox{FromWorld: m}); out != want {
					t.Fatalf("%s pass %d round %d (%q): candidate sent %+v, reference %+v", name, pass, round, m, out, want)
				}
				rv := comm.RoundView{In: comm.Inbox{FromWorld: m}, Out: out}
				if got, want := s.Observe(rv), refS.Observe(rv); got != want {
					t.Fatalf("%s pass %d round %d (%q): sense %v, reference %v", name, pass, round, m, got, want)
				}
			}
			// A second pass after Reset replays the stream against
			// memos that survived the Reset.
			c.Reset(xrand.New(1))
			s.Reset()
			*ref = refCandidate{d: d}
			refS.Reset()
		}
	}
}
