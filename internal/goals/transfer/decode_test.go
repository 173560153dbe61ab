package transfer

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/dialect"
	"repro/internal/goal"
	"repro/internal/server"
	"repro/internal/system"
	"repro/internal/universal"
	"repro/internal/xrand"
)

// refCandidate is the unmemoised reference candidate: it parses the
// status afresh every round and formats its commands on demand.
type refCandidate struct {
	d    dialect.Dialect
	k    int
	mask uint64
	next int
}

func (c *refCandidate) step(in comm.Inbox) comm.Outbox {
	if k, mask, ok := ParseStatus(in.FromWorld); ok {
		c.k, c.mask = k, mask
	}
	for probe := 0; probe < c.k; probe++ {
		i := (c.next + probe) % c.k
		if i < 64 && c.mask&(1<<uint(i)) != 0 {
			continue
		}
		c.next = (i + 1) % c.k
		return comm.Outbox{ToServer: c.d.Encode(comm.Message(fmt.Sprintf("STORE %d %s", i, Data(i))))}
	}
	return comm.Outbox{}
}

// refSense is the unmemoised reference progress sense: it parses the
// status and counts the stored chunks bit by bit every round.
type refSense struct {
	patience int
	started  bool
	lastHave int
	idle     int
}

func (s *refSense) observe(m comm.Message) bool {
	k, mask, ok := ParseStatus(m)
	if !ok {
		return true
	}
	have := 0
	for i := 0; i < k && i < 64; i++ {
		if mask&(1<<uint(i)) != 0 {
			have++
		}
	}
	if have == k {
		return true
	}
	if !s.started || have > s.lastHave {
		s.started, s.lastHave, s.idle = true, have, 0
		return true
	}
	s.idle++
	return s.idle < s.patience
}

// statusSequences are the message streams the parity test replays:
// repeats, A/B alternation between equal-length statuses, malformed and
// empty messages, statuses sharing a prefix, masks with bits beyond K and
// a random mix of all of them.
func statusSequences() map[string][]comm.Message {
	rep := func(m comm.Message, n int) []comm.Message {
		out := make([]comm.Message, n)
		for i := range out {
			out[i] = m
		}
		return out
	}
	var alt, progress []comm.Message
	for i := 0; i < 12; i++ {
		alt = append(alt, "WANT 5|HAVE 3", "WANT 5|HAVE 4")
	}
	for mask := uint64(0); mask < 32; mask = mask<<1 | 1 {
		progress = append(progress, rep(comm.Message(fmt.Sprintf("WANT 5|HAVE %d", mask)), 4)...)
	}
	pool := []comm.Message{
		"", "WANT 5|HAVE 3", "WANT 5|HAVE 4", "WANT 5|HAVE 31", "WANT 5|HAVE 313",
		"WANT 5|HAVE x", "WANT 5", "garbage", "WANT 1|HAVE 0", "WANT 12|HAVE 0",
		"WANT 2|HAVE 7", "WANT 70|HAVE 18446744073709551615", "WANT -1|HAVE 0",
	}
	r := xrand.New(7)
	mix := make([]comm.Message, 600)
	for i := range mix {
		mix[i] = pool[r.Intn(len(pool))]
	}
	return map[string][]comm.Message{
		"repeat":     rep("WANT 5|HAVE 3", 20),
		"alternate":  alt,
		"progress":   progress,
		"malformed":  {"", "WANT 5|HAVE 3", "WANT 5|HAVE x", "WANT 5|HAVE 3", "WANT 5", "garbage", "", "", "WANT 5|HAVE 3"},
		"prefix":     {"WANT 5|HAVE 3", "WANT 5|HAVE 31", "WANT 5|HAVE 3", "WANT 1|HAVE 0", "WANT 12|HAVE 0", "WANT 1|HAVE 0"},
		"beyond-k":   {"WANT 2|HAVE 7", "WANT 2|HAVE 3", "WANT 70|HAVE 18446744073709551615", "WANT 64|HAVE 18446744073709551615"},
		"random-mix": mix,
	}
}

// TestDecodeParity drives the memoised candidate and sense side by side
// with unmemoised references over the same status streams, across a
// Reset, and requires identical outputs and indications every round.
func TestDecodeParity(t *testing.T) {
	t.Parallel()

	d := fam(t, 3).Dialect(1)
	for name, seq := range statusSequences() {
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

// TestUniversalTransferAtMaxKNeverSwitches pins the largest transfer the
// status mask carries: the matching candidate is found first and never
// evicted, before or after the world reports completion.
func TestUniversalTransferAtMaxKNeverSwitches(t *testing.T) {
	t.Parallel()

	f := fam(t, 2)
	g := &Goal{K: MaxK}
	u, err := universal.NewCompactUser(Enum(f), Sense(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Dialected(&Server{}, f.Dialect(0))
	res, err := system.Run(u, srv, g.NewWorld(goal.Env{}), system.Config{
		MaxRounds: 4000, Seed: 1, Record: system.RecordWindow(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if u.Switches() != 0 {
		t.Fatalf("matching candidate evicted %d times at K=%d", u.Switches(), MaxK)
	}
	if !goal.CompactAchieved(g, res.History, 10) {
		t.Fatalf("transfer incomplete: %q", res.History.Last())
	}
}
