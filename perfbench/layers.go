package main

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/goal"
	"repro/internal/scenario"
	"repro/internal/system"
	"repro/internal/xrand"
)

// Probe sizes: per goal, up to probeScenarios scenarios of the
// workload's selection, each run for probeTrials trials; every probe is
// repeated probeReps times and reported as the median.
const (
	probeScenarios = 64
	probeTrials    = 4
	probeReps      = 9
)

// timedStrategy is a party decorator that adds the time spent in Step to
// *ns. It forwards comm.Halter and Switches() so the engine and the
// sweep's aggregation see the wrapped party exactly as the bare one.
type timedStrategy struct {
	inner  comm.Strategy
	halter comm.Halter
	ns     *int64
}

func timed(s comm.Strategy, ns *int64) *timedStrategy {
	h, _ := s.(comm.Halter)
	return &timedStrategy{inner: s, halter: h, ns: ns}
}

func (s *timedStrategy) Reset(r *xrand.Rand) { s.inner.Reset(r) }

func (s *timedStrategy) Step(in comm.Inbox) (comm.Outbox, error) {
	t0 := time.Now()
	out, err := s.inner.Step(in)
	*s.ns += int64(time.Since(t0))
	return out, err
}

func (s *timedStrategy) Halted() bool { return s.halter != nil && s.halter.Halted() }

func (s *timedStrategy) Switches() int {
	if sw, ok := s.inner.(interface{ Switches() int }); ok {
		return sw.Switches()
	}
	return 0
}

// tracker judges each round like the sweep's per-trial tracker does, so
// probe rounds cost what sweep rounds cost.
type tracker struct {
	g       goal.CompactGoal
	judge   goal.WorldJudge
	scratch comm.History
	lastBad int
	msgs    int
}

func (t *tracker) count(rv comm.RoundView) {
	if !rv.In.FromServer.Empty() {
		t.msgs++
	}
	if !rv.In.FromWorld.Empty() {
		t.msgs++
	}
	if !rv.Out.ToServer.Empty() {
		t.msgs++
	}
	if !rv.Out.ToWorld.Empty() {
		t.msgs++
	}
}

func (t *tracker) onRound(round int, rv comm.RoundView, state comm.WorldState) {
	if t.scratch.States == nil {
		t.scratch.States = make([]comm.WorldState, 1)
	}
	t.scratch.States[0] = state
	t.scratch.Dropped = round
	if !t.g.Acceptable(t.scratch) {
		t.lastBad = round + 1
	}
	t.count(rv)
}

func (t *tracker) onRoundLive(round int, rv comm.RoundView, w goal.World) {
	if !t.judge.AcceptableWorld(w) {
		t.lastBad = round + 1
	}
	t.count(rv)
}

// probeCase is one bound scenario of the engine probe.
type probeCase struct {
	sc   *scenario.Scenario
	bind *scenario.Binding
}

// partTimes collects the Step time of wrapped users and servers.
type partTimes struct{ user, server int64 }

// runProbe runs the cases' trials through system.RunEach and returns the
// wall time, the rounds executed and the heap objects allocated. With
// parts non-nil the users and servers are wrapped in timing decorators.
func runProbe(cases []probeCase, base uint64, parallel int, parts *partTimes) (time.Duration, int64, float64, error) {
	// Per-trial Step counters: trials may run on different goroutines.
	type trialTimes struct{ user, server int64 }
	times := make([]trialTimes, len(cases)*probeTrials)
	var trials []system.Trial
	for _, c := range cases {
		judge, _ := c.bind.Goal.(goal.WorldJudge)
		for t := 0; t < probeTrials; t++ {
			tk := &tracker{g: c.bind.Goal, judge: judge}
			cfg := system.Config{
				MaxRounds: c.bind.MaxRounds,
				Seed:      system.DeriveSeed(base^c.sc.Hash(), t),
				Record:    system.RecordOff,
			}
			if judge != nil {
				cfg.OnRoundLive = tk.onRoundLive
			} else {
				cfg.OnRound = tk.onRound
			}
			trial := system.Trial{User: c.bind.User, Server: c.bind.Server, World: c.bind.World, Config: cfg}
			if parts != nil {
				tt := &times[len(trials)]
				mkUser, mkServer := c.bind.User, c.bind.Server
				trial.User = func() (comm.Strategy, error) {
					u, err := mkUser()
					if err != nil {
						return nil, err
					}
					return timed(u, &tt.user), nil
				}
				trial.Server = func() comm.Strategy { return timed(mkServer(), &tt.server) }
			}
			trials = append(trials, trial)
		}
	}
	allocs0 := readMetric(heapAllocsMetric)
	t0 := time.Now()
	results, errs := system.RunEach(trials, system.BatchConfig{Parallelism: parallel})
	wall := time.Since(t0)
	allocs := readMetric(heapAllocsMetric) - allocs0
	var rounds int64
	for i, res := range results {
		if errs[i] != nil {
			return 0, 0, 0, fmt.Errorf("engine probe trial %d: %w", i, errs[i])
		}
		rounds += int64(res.Rounds)
		system.ReleaseResult(res)
	}
	if parts != nil {
		for _, tt := range times {
			parts.user += tt.user
			parts.server += tt.server
		}
	}
	return wall, rounds, allocs, nil
}

// clockOverhead estimates the time one time.Now/time.Since pair adds
// inside a timed interval.
func clockOverhead() float64 {
	const n = 200000
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return float64(total) / n
}

// systemProbe times bound trials of each goal in the workload's selection
// (nil: the whole matrix) through system.RunEach: per goal at Parallel 1,
// then all goals pooled — bare at Parallel 1 and nproc, and with timed
// parties at Parallel 1 for the per-party split.
func systemProbe(m *scenario.Matrix, sel []int64, out map[string]float64) error {
	_, _, base := scenario.SweepConfig{}.Effective(m.Spec())
	reg := scenario.Builtin()
	byGoal := make(map[string][]probeCase)
	for _, i := range indices(m, sel) {
		sc := m.At(i)
		g, _ := sc.Get("goal")
		if len(byGoal[g]) >= probeScenarios {
			continue
		}
		b, err := reg.Bind(sc)
		if err != nil {
			return err
		}
		byGoal[g] = append(byGoal[g], probeCase{sc: sc, bind: b})
	}

	var pooled []probeCase
	for _, g := range goals {
		cases := byGoal[g]
		if len(cases) == 0 {
			continue
		}
		pooled = append(pooled, cases...)
		var ns []float64
		for r := 0; r < probeReps; r++ {
			wall, rounds, _, err := runProbe(cases, base, 1, nil)
			if err != nil {
				return err
			}
			ns = append(ns, float64(wall)/float64(rounds))
		}
		out["system.ns_per_round."+g] = median(ns)
	}
	if len(pooled) == 0 {
		return fmt.Errorf("engine probe: the selection binds no goal")
	}

	// The Parallel-1 and Parallel-nproc runs are paired, and scaling_eff
	// is the median of the pairs' ratios, so host speed drifting between
	// pairs cancels out.
	var serial, scaling, allocs, user, server []float64
	overhead := clockOverhead()
	for r := 0; r < probeReps; r++ {
		wall, rounds, a, err := runProbe(pooled, base, 1, nil)
		if err != nil {
			return err
		}
		rate1 := float64(rounds) / wall.Seconds()
		serial = append(serial, rate1)
		allocs = append(allocs, a/float64(rounds))
		if wall, rounds, _, err = runProbe(pooled, base, nproc(), nil); err != nil {
			return err
		}
		scaling = append(scaling, float64(rounds)/wall.Seconds()/(float64(nproc())*rate1))
		var parts partTimes
		if _, rounds, _, err = runProbe(pooled, base, 1, &parts); err != nil {
			return err
		}
		user = append(user, float64(parts.user)/float64(rounds)-overhead)
		server = append(server, float64(parts.server)/float64(rounds)-overhead)
	}
	bare := 1e9 / median(serial) // ns per round, bare parties
	out["system.user_ns_per_round"] = median(user)
	out["system.server_ns_per_round"] = median(server)
	out["system.rest_ns_per_round"] = bare - median(user) - median(server)
	out["system.allocs_per_round"] = median(allocs)
	out["system.scaling_eff"] = median(scaling)
	return nil
}

// scenarioProbe times direct calls to Matrix.At and Registry.Bind over
// the workload's selection (nil: the whole matrix), and to Matrix.Sample
// when the workload samples.
func scenarioProbe(m *scenario.Matrix, sel []int64, out map[string]float64) error {
	idx := indices(m, sel)
	reg := scenario.Builtin()
	scs := make([]*scenario.Scenario, len(idx))
	var at, bind, sample []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i, j := range idx {
			scs[i] = m.At(j)
		}
		at = append(at, float64(time.Since(t0))/1e3/float64(len(idx)))
		t0 = time.Now()
		for _, sc := range scs {
			if _, err := reg.Bind(sc); err != nil {
				return err
			}
		}
		bind = append(bind, float64(time.Since(t0))/1e3/float64(len(idx)))
		if sel != nil {
			t0 = time.Now()
			m.Sample(len(sel), uint64(r+1))
			sample = append(sample, float64(time.Since(t0))/1e6)
		}
	}
	out["scenario.at_us"] = median(at)
	out["scenario.bind_us"] = median(bind)
	if sel != nil {
		out["scenario.sample_ms"] = median(sample)
	}
	return nil
}

// indices returns the selection, or every index of the matrix for nil.
func indices(m *scenario.Matrix, sel []int64) []int64 {
	if sel != nil {
		return sel
	}
	all := make([]int64, m.Size())
	for i := range all {
		all[i] = int64(i)
	}
	return all
}
