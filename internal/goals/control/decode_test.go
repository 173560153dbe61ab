package control

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/xrand"
)

// refCandidate is the unmemoised reference candidate: it parses the
// telemetry afresh on every control cycle.
type refCandidate struct {
	d     dialect.Dialect
	phase int
}

func (c *refCandidate) step(in comm.Inbox) comm.Outbox {
	defer func() { c.phase++ }()
	if c.phase%CycleRounds != 0 {
		return comm.Outbox{}
	}
	pos, set, ok := ParsePlant(in.FromWorld)
	if !ok || pos == set {
		return comm.Outbox{}
	}
	return comm.Outbox{ToServer: c.d.Encode(comm.Message(fmt.Sprintf("MOVE %d", clamp(set-pos, MaxForce))))}
}

// refSense is the unmemoised reference error sense: it parses the
// telemetry afresh every round.
type refSense struct {
	patience int
	started  bool
	best     int
	idle     int
}

func (s *refSense) observe(m comm.Message) bool {
	pos, set, ok := ParsePlant(m)
	if !ok {
		return true
	}
	errAbs := abs(pos - set)
	if errAbs == 0 {
		s.idle = 0
		return true
	}
	if !s.started || errAbs < s.best {
		s.started, s.best, s.idle = true, errAbs, 0
		return true
	}
	s.idle++
	return s.idle < s.patience
}

// plantSequences are the telemetry streams the parity test replays:
// repeats, A/B alternation between equal-length messages, malformed and
// empty messages, messages sharing a prefix, a converging trajectory and
// a random mix of all of them.
func plantSequences() map[string][]comm.Message {
	rep := func(m comm.Message, n int) []comm.Message {
		out := make([]comm.Message, n)
		for i := range out {
			out[i] = m
		}
		return out
	}
	var alt, converge []comm.Message
	for i := 0; i < 12; i++ {
		alt = append(alt, "POS 7|SET 0", "POS 3|SET 0")
	}
	for pos := 30; pos >= 0; pos -= 4 {
		converge = append(converge, rep(comm.Message(fmt.Sprintf("POS %d|SET 2", pos)), 3)...)
	}
	pool := []comm.Message{
		"", "POS 7|SET 0", "POS 3|SET 0", "POS 70|SET 0", "POS 7|SET 05", "POS 7|SET 0x",
		"POS x|SET 0", "POS 7", "garbage", "POS -7|SET 0", "POS 0|SET 0", "POS 1|SET 1",
	}
	r := xrand.New(11)
	mix := make([]comm.Message, 600)
	for i := range mix {
		mix[i] = pool[r.Intn(len(pool))]
	}
	return map[string][]comm.Message{
		"repeat":     rep("POS 9|SET -4", 20),
		"alternate":  alt,
		"converge":   converge,
		"malformed":  {"", "POS 7|SET 0", "POS x|SET 0", "POS 7|SET 0", "POS 7", "garbage", "", "", "POS 7|SET 0"},
		"prefix":     {"POS 7|SET 0", "POS 70|SET 0", "POS 7|SET 0", "POS 7|SET 05", "POS 7|SET 0", "POS 7|SET 0x"},
		"random-mix": mix,
	}
}

// TestDecodeParity drives the memoised candidate and sense side by side
// with unmemoised references over the same telemetry streams, across a
// Reset, and requires identical outputs and indications every round.
func TestDecodeParity(t *testing.T) {
	t.Parallel()

	d := Units{Off: -2, Idx: 4}
	for name, seq := range plantSequences() {
		c := &Candidate{D: d}
		s := Sense(3)
		ref := &refCandidate{d: d}
		refS := &refSense{patience: 3}
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
				got := s.Observe(comm.RoundView{In: comm.Inbox{FromWorld: m}, Out: out})
				if want := refS.observe(m); got != want {
					t.Fatalf("%s pass %d round %d (%q): sense %v, reference %v", name, pass, round, m, got, want)
				}
			}
			// A second pass after Reset replays the stream against
			// memos that survived the Reset.
			c.Reset(xrand.New(1))
			s.Reset()
			*ref = refCandidate{d: d}
			*refS = refSense{patience: 3}
		}
	}
}
