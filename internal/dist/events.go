package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Server-sent events: GET /v1/sweeps/{id}/events streams a job's
// results shard-by-shard. A new subscriber first replays every
// already-accepted shard envelope in shard-index order, then receives
// the remaining ones as workers land them, and finally one complete
// frame, after which the stream ends. A subscriber therefore always
// observes exactly Shards shard frames plus one complete frame — enough
// to MergeShards the job client-side without a second fetch — no matter
// when it connected.
//
// Frames are published under the coordinator mutex into per-subscriber
// buffered channels sized to hold the whole job, so a slow consumer can
// never block a submit; the socket writes happen outside the lock.

// sseFrame encodes one server-sent event. data must be a single line
// (compact JSON never contains raw newlines).
func sseFrame(event, id string, data []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(data) + len(event) + len(id) + 32)
	fmt.Fprintf(&b, "event: %s\n", event)
	if id != "" {
		fmt.Fprintf(&b, "id: %s\n", id)
	}
	b.WriteString("data: ")
	b.Write(data)
	b.WriteString("\n\n")
	return b.Bytes()
}

// shardFrame encodes shard idx's accepted envelope as an EventShard
// frame; the event ID is the shard index. The data line is the body the
// worker submitted, forwarded verbatim — the coordinator decoded and
// validated all of it before accepting it. Only a body that is not one
// line (an indented submit) or was not kept (a shard resumed from disk)
// is re-encoded compactly. Called with c.mu held.
func shardFrame(j *job, idx int) ([]byte, error) {
	data := j.bodies[idx]
	if data == nil || bytes.ContainsAny(data, "\r\n") {
		var err error
		if data, err = json.Marshal(j.results[idx]); err != nil {
			return nil, err
		}
	}
	return sseFrame(EventShard, strconv.Itoa(idx), data), nil
}

// completeFrame encodes a job's terminal EventComplete frame.
func completeFrame(j *job) []byte {
	data, _ := json.Marshal(CompleteEvent{ID: j.id, Spec: j.plan.Spec.Name, Shards: j.plan.Shards})
	return sseFrame(EventComplete, j.id, data)
}

// publishShardLocked fans shard idx's accepted envelope out to the
// job's live subscribers. Called with c.mu held.
func (c *Coordinator) publishShardLocked(j *job, idx int) {
	if len(j.subs) == 0 {
		return
	}
	frame, err := shardFrame(j, idx)
	if err != nil {
		return
	}
	c.publishLocked(j, frame)
}

// publishLocked sends one frame to every live subscriber. Sends are
// non-blocking: each channel is buffered to hold the job's full frame
// count, so a send can only be dropped if a subscriber somehow consumed
// nothing while more frames than the job owns were published — which
// the replay/publish accounting rules out.
func (c *Coordinator) publishLocked(j *job, frame []byte) {
	for _, sub := range j.subs {
		select {
		case sub <- frame:
		default:
		}
	}
}

// closeSubsLocked ends every live subscription; each handler drains its
// remaining buffered frames and returns. Called with c.mu held.
func (c *Coordinator) closeSubsLocked(j *job) {
	for _, sub := range j.subs {
		close(sub)
	}
	j.subs = nil
}

// removeSub detaches one subscriber (client went away mid-stream).
func (c *Coordinator) removeSub(j *job, sub chan []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range j.subs {
		if s == sub {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// handleEvents serves GET /v1/sweeps/{id}/events.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	j, ok := c.jobs[id]
	var replay [][]byte
	var sub chan []byte
	if ok {
		for idx := 1; idx <= j.plan.Shards; idx++ {
			if j.results[idx] == nil {
				continue
			}
			frame, err := shardFrame(j, idx)
			if err != nil {
				continue
			}
			replay = append(replay, frame)
		}
		if j.complete() {
			replay = append(replay, completeFrame(j))
		} else {
			// Capacity covers every frame the job can still publish
			// (remaining shards + complete) — the non-blocking publish
			// relies on it.
			sub = make(chan []byte, j.plan.Shards+1)
			j.subs = append(j.subs, sub)
		}
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("dist: unknown sweep %q", id), http.StatusNotFound)
		return
	}
	if sub != nil {
		defer c.removeSub(j, sub)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, frame := range replay {
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
	flush()
	if sub == nil {
		return // job already complete: replay was the whole stream
	}
	for {
		select {
		case frame, open := <-sub:
			if !open {
				return // job completed; every frame has been delivered
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}
