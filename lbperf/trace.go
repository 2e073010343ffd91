package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/workload"
)

// span is one timed interval of the traced run: a call the benchmark made
// into a layer of the program, or a grouping of such calls (a job, a
// Runner round). Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer holds the spans of one traced run in memory; they are written out
// once, when the run ends. A nil tracer records nothing, which is how the
// untraced runs measure the end-to-end metrics.
type tracer struct {
	mu    sync.Mutex // sweep cells and sink writes report from worker goroutines
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span under parent and returns its index (-1 when nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, time.Now())
}

func (t *tracer) beginAt(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(at.Sub(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// roundClock is the Runner's OnRound hook. It records the wall time at the
// end of every round; in a traced run it also closes the current
// sim.round span and opens the next, so the calls the Runner makes between
// two OnRound callbacks (step, dynamics, policy, metric scans) land as
// children of the round they ran in.
type roundClock struct {
	tr    *tracer
	run   int // the sim.run span
	cur   int // the open sim.round span
	marks []time.Time
}

// start opens the sim.run span under parent; call it right before Run.
func (c *roundClock) start(parent, rounds int) {
	now := time.Now()
	c.marks = append(make([]time.Time, 0, rounds+1), now)
	c.run = c.tr.beginAt("sim.run", parent, now)
	c.cur = c.tr.beginAt("sim.round", c.run, now)
}

func (c *roundClock) onRound(int, core.Process) {
	now := time.Now()
	c.marks = append(c.marks, now)
	c.tr.endAt(c.cur, now)
	c.cur = c.tr.beginAt("sim.round", c.run, now)
}

// finish closes the run. The span still open after the last round covers
// the Runner's final recording and return; it is renamed so it is not
// counted as a round.
func (c *roundClock) finish() {
	now := time.Now()
	if c.tr != nil {
		c.tr.spans[c.cur].Name = "sim.final"
	}
	c.tr.endAt(c.cur, now)
	c.tr.endAt(c.run, now)
}

// roundMS returns the per-round wall times, skipping round 1: its interval
// also holds the Runner's own set-up and the round-0 recording.
func (c *roundClock) roundMS() []float64 {
	var out []float64
	for i := 2; i < len(c.marks); i++ {
		out = append(out, float64(c.marks[i].Sub(c.marks[i-1]))/1e6)
	}
	return out
}

// elapsed is the wall time from the start of Run to the last round's end.
func (c *roundClock) elapsed() time.Duration { return c.marks[len(c.marks)-1].Sub(c.marks[0]) }

// engine is the part of the two integer engines (core.Discrete and the
// actor runtime) the benchmark drives and checks. Embedding it keeps every
// capability the Runner looks for by type assertion.
type engine interface {
	core.Process
	core.Injector
	core.Retargeter
	core.BetaSetter
	core.Sharded
	Injected() (added, removed int64)
	Traffic() (tokens, messages int64)
	TotalLoad() int64
	LoadsInt() []int64
	MemoryFootprint() int64
}

// probedEngine wraps an engine for the traced run: Step, Inject and
// Retarget become spans under the current round, and each Step's heap
// allocations are counted. The caller holds the collector off (see
// withGCOff) so that the count is the engine's own.
type probedEngine struct {
	engine
	clock    *roundClock
	stepName string
	allocs   []uint64
	ms       runtime.MemStats
}

func (p *probedEngine) Step() {
	id := p.clock.tr.begin(p.stepName, p.clock.cur)
	runtime.ReadMemStats(&p.ms)
	before := p.ms.Mallocs
	p.engine.Step()
	runtime.ReadMemStats(&p.ms)
	p.clock.tr.end(id)
	p.allocs = append(p.allocs, p.ms.Mallocs-before)
}

// release drops the wrapped engine once the job is done, keeping only the
// counts (a nil probe is a no-op).
func (p *probedEngine) release() {
	if p != nil {
		p.engine = nil
	}
}

func (p *probedEngine) Inject(deltas []int64) error {
	id := p.clock.tr.begin("sim.inject", p.clock.cur)
	defer p.clock.tr.end(id)
	return p.engine.Inject(deltas)
}

func (p *probedEngine) Retarget(op *spectral.Operator) error {
	id := p.clock.tr.begin("sim.retarget", p.clock.cur)
	defer p.clock.tr.end(id)
	return p.engine.Retarget(op)
}

// probedMetrics wraps each metric so its scan is a sim.metric.<name> span.
func probedMetrics(c *roundClock, ms []sim.Metric) []sim.Metric {
	out := make([]sim.Metric, len(ms))
	for i, m := range ms {
		m, name := m, "sim.metric."+m.Name()
		out[i] = sim.MetricFunc(m.Name(), func(p core.Process) float64 {
			id := c.tr.begin(name, c.cur)
			defer c.tr.end(id)
			return m.Compute(p)
		})
	}
	return out
}

// probedPolicy times the adaptive controller's decision (its φ_local scan).
type probedPolicy struct {
	core.AdaptivePolicy
	clock *roundClock
}

func (p probedPolicy) Decide(proc core.Process) (core.Kind, bool) {
	id := p.clock.tr.begin("sim.policy", p.clock.cur)
	defer p.clock.tr.end(id)
	return p.AdaptivePolicy.Decide(proc)
}

// probedMutator times the workload's per-round delta generation.
type probedMutator struct {
	workload.Mutator
	clock *roundClock
}

func (p probedMutator) Deltas(round int, loads workload.Loads, out []int64) bool {
	id := p.clock.tr.begin("workload.deltas", p.clock.cur)
	defer p.clock.tr.end(id)
	return p.Mutator.Deltas(round, loads, out)
}

// probedDynamics times the environment's per-round speed factors.
type probedDynamics struct {
	envdyn.Dynamics
	clock *roundClock
}

func (p probedDynamics) Factors(round int, base *hetero.Speeds, mult []float64) bool {
	id := p.clock.tr.begin("envdyn.factors", p.clock.cur)
	defer p.clock.tr.end(id)
	return p.Dynamics.Factors(round, base, mult)
}
