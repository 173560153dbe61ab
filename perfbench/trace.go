package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program. Times are nanoseconds since the tracer's epoch; Parent 0
// marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer is valid and records nothing, so untraced runs share the
// traced code path at the cost of a nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun labels every span begun from now on with the run (repetition)
// ID.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// active is a span that has begun and not yet ended.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	run    string
	start  time.Time
}

// begin opens a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64) active {
	if t == nil {
		return active{}
	}
	t.mu.Lock()
	run := t.run
	t.mu.Unlock()
	return active{t: t, id: t.next.Add(1), parent: parent, name: name, run: run, start: time.Now()}
}

// end closes the span and returns its duration (0 when untraced).
func (a active) end() time.Duration {
	if a.t == nil {
		return 0
	}
	now := time.Now()
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, span{
		ID: a.id, Parent: a.parent, Name: a.name, Run: a.run,
		Start: int64(a.start.Sub(a.t.epoch)), End: int64(now.Sub(a.t.epoch)),
	})
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// durations returns the durations of every recorded span with the given
// name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfRow is one span name's totals: time inside its spans, and the part
// of it not covered by child spans.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes each span's self time — its duration minus the part
// of its interval that the union of its children covers — and totals it
// by span name.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMs += float64(s.End-s.Start) / 1e6
		r.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores every span plus the self-time table as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Self  []selfRow `json:"self"`
		Spans []span    `json:"spans"`
	}{self, t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
