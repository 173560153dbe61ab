package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// cpuTime returns the process's user + system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetric reads one runtime/metrics sample as a float64.
func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

const (
	liveHeapMetric   = "/gc/heap/live:bytes"
	heapAllocsMetric = "/gc/heap/allocs:objects"
)

// heapSampler polls the live heap on its own goroutine and keeps the
// highest value seen. runtime/metrics reads do not stop the
// world, so sampling does not perturb the run it watches.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = readMetric(liveHeapMetric)
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				v := readMetric(liveHeapMetric)
				h.mu.Lock()
				h.peak = math.Max(h.peak, v)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for its goroutine and returns the peak
// in bytes, including one final sample.
func (h *heapSampler) finish() float64 {
	v := readMetric(liveHeapMetric)
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return math.Max(h.peak, v)
}

// Counters and histograms the program already exports through
// internal/obs; asking the default registry for an existing family
// returns the live metric.
var (
	engineRounds   = obs.Default().Counter("goalsweep_engine_rounds_total", "")
	engineFinished = obs.Default().Counter("goalsweep_engine_trials_finished_total", "")
	engineErrors   = obs.Default().Counter("goalsweep_engine_trial_errors_total", "")
	chunkSeconds   = obs.Default().Histogram("goalsweep_sweep_chunk_seconds", "", nil)
	computeSeconds = obs.Default().Histogram("goalsweep_worker_compute_seconds", "", nil)
	pollWaits      = obs.Default().Counter("goalsweep_worker_poll_waits_total", "")
	transportRetry = obs.Default().Counter("goalsweep_worker_transport_retries_total", "")
	eventReconnect = obs.Default().Counter("goalsweep_client_event_reconnects_total", "")
	submitsOK      = obs.Default().CounterVec("goalsweep_coord_submits_accepted_total", "", "job")
	submitsDup     = obs.Default().CounterVec("goalsweep_coord_submits_duplicate_total", "", "job")
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// nproc is the worker count parallel phases use.
func nproc() int { return runtime.GOMAXPROCS(0) }
