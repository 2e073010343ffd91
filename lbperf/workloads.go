package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/sweep"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
)

// Salts keep the input streams derived from --seed apart.
const (
	saltGraph uint64 = iota + 1
	saltSpeeds
	saltLoads
	saltRounding
	saltWorkload
	saltEnv
	saltGrid
)

// runnerWorkload describes one of the two Runner workloads: a system to
// build and the dynamics a sim.Runner drives it with.
type runnerWorkload struct {
	nodes   int
	graph   string // graph.FromSpec syntax
	speeds  string // hetero.SpeedsFromSpec syntax; "" is homogeneous
	runtime string // actor.FromSpec syntax; "" is the shared-memory engine
	// beta is the SOS β. 0 means β_opt from the analytic torus λ.
	beta   float64
	rounds int // rounds per job
	// jobs is the least number of jobs a run makes. Identical jobs differ
	// by up to ~25% in round time on the 2-vCPU VM (fresh arrays land on
	// different physical pages of a shared cache), so the run's median
	// needs several of them.
	jobs     int
	every    int // Series recording cadence
	workload string
	env      string
	policy   string
	// dynamic marks the workload whose jobs must see an injection, a
	// speed event and a scheme switch.
	dynamic bool
}

var torusSOSStatic = runnerWorkload{
	nodes:  1 << 20,
	graph:  "torus2d:1024x1024",
	rounds: 20,
	jobs:   6,
	every:  1,
}

// The expander runs at a fixed β: the power iteration does not finish at
// 2²⁰ nodes in a useful time. 1.25 is above β_opt of the d=8 random-regular
// operator (≈1.1 for the homogeneous graph) so SOS still overshoots.
var expanderActorDynamic = runnerWorkload{
	nodes:    1 << 20,
	graph:    "regular:1048576:8",
	speeds:   "twoclass:0.25:4",
	runtime:  "actor:2",
	beta:     1.25,
	rounds:   10,
	jobs:     4,
	every:    10,
	workload: "poisson:0.5+burst:7:4000000:0",
	env:      "throttle:at=3,frac=0.125,factor=0.25",
	policy:   "adaptive:650:100000:1",
	dynamic:  true,
}

// system is one built graph, operator and engine, with the set-up time
// they took.
type system struct {
	g     *graph.Graph
	op    *spectral.Operator
	eng   engine
	setup time.Duration
}

// build makes the system of w from the run's inputs. Each layer call is a
// span under parent when tr is not nil. runtimeSpec overrides w.runtime
// (the traced run builds the shared-memory twin of the actor workload).
func (w runnerWorkload) build(tr *tracer, seed uint64, parent int, runtimeSpec string, x0 []int64) (*system, error) {
	t0 := time.Now()
	id := tr.begin("graph.build", parent)
	g, err := graph.FromSpec(w.graph, randx.Mix(seed, saltGraph))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	id = tr.begin("hetero.speeds", parent)
	sp := hetero.Homogeneous(n)
	if w.speeds != "" {
		sp, err = hetero.SpeedsFromSpec(w.speeds, n, randx.Mix(seed, saltSpeeds))
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("spectral.operator", parent)
	op, err := spectral.NewOperator(g, sp, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	beta := w.beta
	if beta == 0 {
		id = tr.begin("spectral.lambda", parent)
		var lam float64
		lam, err = spectral.AnalyticTorus2DLambda(torusSide(w.graph))
		if err == nil {
			beta, err = spectral.BetaOpt(lam)
		}
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	var eng engine
	rounding := randx.Mix(seed, saltRounding)
	if runtimeSpec != "" {
		id = tr.begin("actor.new", parent)
		var opts actor.Options
		opts, err = actor.FromSpec(runtimeSpec)
		if err == nil {
			eng, err = actor.New(op, core.SOS, beta, core.RandomizedRounder{}, rounding, x0, opts)
		}
	} else {
		id = tr.begin("core.new", parent)
		eng, err = core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: beta, Layout: shard.ForWorkers(g, 0)},
			core.RandomizedRounder{}, rounding, x0)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &system{g: g, op: op, eng: eng, setup: time.Since(t0)}, nil
}

// torusSide parses the square side of a "torus2d:SxS" spec.
func torusSide(spec string) (int, int) {
	var w, h int
	fmt.Sscanf(spec, "torus2d:%dx%d", &w, &h)
	return w, h
}

// jobResult is what one Runner job reports back to the run loop.
type jobResult struct {
	setup   time.Duration
	roundMS []float64
	arcRate float64 // arc-updates per second of rounds 2..R
	wall    time.Duration
	digest  string
	probe   *probedEngine
	actReg  *telemetry.Registry
	traffic [2]int64 // tokens, messages over the run
	// What the metrics need of the system, so that a finished job does not
	// keep its (up to a GiB) arrays alive.
	arcs      int
	footprint int64 // graph + operator + engine
	engBytes  int64
	imbalance float64
	fanoutUS  float64 // traced jobs only
}

// job builds the system and runs it for w.rounds rounds under a sim.Runner,
// then checks the output. traced wraps every layer call in a span.
func (w runnerWorkload) job(r *run, x0 []int64, runtimeSpec string, traced bool, spanName string) (*jobResult, error) {
	tr := r.tr
	if !traced {
		tr = nil
	}
	jobSpan := tr.begin(spanName, -1)
	defer tr.end(jobSpan)

	runtime.GC()
	setupSpan := tr.begin("setup", jobSpan)
	sys, err := w.build(tr, r.seed, setupSpan, runtimeSpec, x0)
	tr.end(setupSpan)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	n := sys.g.NumNodes()
	wl, err := workload.FromSpec(w.workload, n, randx.Mix(r.seed, saltWorkload))
	if err != nil {
		return nil, err
	}
	env, err := envdyn.FromSpec(w.env, n, randx.Mix(r.seed, saltEnv))
	if err != nil {
		return nil, err
	}
	policy, err := core.PolicyFromSpec(w.policy)
	if err != nil {
		return nil, err
	}

	clock := &roundClock{tr: tr}
	runner := &sim.Runner{Proc: sys.eng, Every: w.every, Metrics: sim.DefaultMetrics(), OnRound: clock.onRound,
		Workload: wl, Environment: env, Adaptive: policy}
	res := &jobResult{setup: sys.setup, arcs: sys.g.NumArcs(), engBytes: sys.eng.MemoryFootprint(),
		footprint: sys.g.MemoryFootprint() + sys.op.MemoryFootprint() + sys.eng.MemoryFootprint(),
		imbalance: arcImbalance(sys.eng.ShardLayout())}
	if traced {
		stepName := "core.step"
		if runtimeSpec != "" {
			stepName = "actor.step"
			res.actReg = telemetry.NewRegistry()
			sys.eng.(*actor.Runtime).SetTelemetry(telemetry.NewActorProbe(res.actReg, nil, sys.eng.StepWorkers(), false))
		}
		res.probe = &probedEngine{engine: sys.eng, clock: clock, stepName: stepName, allocs: make([]uint64, 0, w.rounds)}
		res.fanoutUS = fanoutUS(sys.g)
		runner.Proc = res.probe
		runner.Metrics = probedMetrics(clock, runner.Metrics)
		if wl != nil {
			runner.Workload = probedMutator{Mutator: wl, clock: clock}
		}
		if env != nil {
			runner.Environment = probedDynamics{Dynamics: env, clock: clock}
		}
		if policy != nil {
			runner.Adaptive = probedPolicy{AdaptivePolicy: policy, clock: clock}
		}
	}

	var initial int64
	for _, v := range x0 {
		initial += v
	}
	tok0, msg0 := sys.eng.Traffic()
	runtime.GC()
	var out *sim.Result
	withGCOff(traced, func() {
		clock.start(jobSpan, w.rounds)
		out, err = runner.Run(w.rounds)
		clock.finish()
	})
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	tok1, msg1 := sys.eng.Traffic()
	res.traffic = [2]int64{tok1 - tok0, msg1 - msg0}
	res.roundMS = clock.roundMS()
	res.wall = clock.elapsed()
	// Throughput over the same rounds as the latency: round 1 also holds the
	// Runner's set-up and the first touch of the engine's arrays.
	var timed float64
	for _, ms := range res.roundMS {
		timed += ms / 1e3
	}
	res.arcRate = float64(sys.g.NumArcs()) * float64(len(res.roundMS)) / timed
	res.digest = digest(sys.eng.LoadsInt(), out.Series)
	r.arcs = sys.g.NumArcs()
	res.probe.release()

	// Output checks: conservation including the net injected load, an
	// empty transport at the barrier, and the dynamics actually firing.
	var total int64
	for _, v := range sys.eng.LoadsInt() {
		total += v
	}
	added, removed := sys.eng.Injected()
	if want := initial + added - removed; total != want {
		return res, fmt.Errorf("load not conserved: total %d, want %d (initial %d + injected %d - removed %d)",
			total, want, initial, added, removed)
	}
	if fl, ok := sys.eng.(core.InFlightReporter); ok && fl.InFlightLoad() != 0 {
		return res, fmt.Errorf("barrier in-flight load %d, want 0", fl.InFlightLoad())
	}
	if w.dynamic {
		if added == 0 || len(out.SpeedEvents) == 0 || len(out.Switches) == 0 {
			return res, fmt.Errorf("dynamics did not fire: injected %d, speed events %d, switches %d",
				added, len(out.SpeedEvents), len(out.Switches))
		}
	}
	return res, nil
}

// withGCOff runs fn with the collector held off when on is set, so the
// per-step allocation counts of a traced run are not disturbed by a
// collection finishing inside the window.
func withGCOff(on bool, fn func()) {
	if !on {
		fn()
		return
	}
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	fn()
}

// runRunnerWorkload is the closed loop of a Runner workload: jobs run back
// to back, each on freshly built inputs of the same seed, until the run's
// time is spent (at least w.jobs).
func runRunnerWorkload(r *run, w runnerWorkload) error {
	n := w.nodes
	r.nodes = n
	x0, err := metrics.UniformRandomLoad(n, 1000*int64(n), randx.Mix(r.seed, saltLoads))
	if err != nil {
		return err
	}

	var jobs []*jobResult
	var firstDigest string
	record := func(res *jobResult, err error) {
		r.attempted++
		if err == nil && firstDigest == "" {
			firstDigest = res.digest
		} else if err == nil && res.digest != firstDigest {
			err = fmt.Errorf("digest %s differs from the first job's %s on identical inputs", res.digest, firstDigest)
		}
		if err != nil {
			r.fail("job %d: %v", r.attempted, err)
			return
		}
		jobs = append(jobs, res)
	}

	start := time.Now()
	if r.trace {
		// One untraced job is the base of the tracing overhead; the traced
		// jobs give the per-layer numbers.
		base, err := w.job(r, x0, w.runtime, false, "job")
		record(base, err)
		var traced []*jobResult
		for len(traced) < 1 || time.Since(start) < r.seconds {
			res, err := w.job(r, x0, w.runtime, true, "job")
			record(res, err)
			if err != nil {
				break
			}
			traced = append(traced, res)
		}
		var twin *jobResult
		if w.runtime != "" {
			// Contract check: the barrier actor runtime is bit-identical to
			// the shared-memory engine on identical inputs.
			twin, err = w.job(r, x0, "", true, "twin")
			if err == nil && twin.digest != firstDigest {
				err = fmt.Errorf("shared-memory digest %s differs from the actor runtime's %s", twin.digest, firstDigest)
			}
			record(twin, err)
		}
		if base != nil && len(traced) > 0 {
			layerMetrics(r, w, base, traced, twin)
		}
		return nil
	}

	for r.attempted < w.jobs || time.Since(start) < r.seconds {
		res, err := w.job(r, x0, w.runtime, false, "job")
		record(res, err)
		if r.attempted >= maxJobs {
			break
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	var jobWall float64
	for _, j := range jobs {
		r.addSample("setup_s", j.setup.Seconds())
		r.addSample("arc_updates_per_s", j.arcRate)
		r.addSample("round_ms_p50", median(j.roundMS))
		r.roundSamples = append(r.roundSamples, j.roundMS...)
		jobWall += j.setup.Seconds() + j.wall.Seconds()
	}
	r.workingSet = jobs[len(jobs)-1].footprint
	r.set("setup_s", "s", median(r.jobSamples["setup_s"]))
	r.set("arc_updates_per_s", "1/s", median(r.jobSamples["arc_updates_per_s"]))
	r.set("round_ms_p50", "ms", median(r.roundSamples))
	r.set("bytes_per_arc", "B/arc", float64(r.workingSet)/float64(r.arcs))
	r.set("cells_per_s", "1/s", float64(len(jobs))/jobWall)
	return nil
}

// layerMetrics turns the traced jobs' spans and counters into the
// per-layer metrics.
func layerMetrics(r *run, w runnerWorkload, base *jobResult, traced []*jobResult, twin *jobResult) {
	tr := r.tr
	spanMedian := func(name string, scale float64) float64 {
		var xs []float64
		for _, s := range tr.named(name) {
			xs = append(xs, s.ms()*scale)
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	r.set("graph.build_s", "s", spanMedian("graph.build", 1e-3))
	r.set("spectral.operator_s", "s", spanMedian("spectral.operator", 1e-3))
	r.set("spectral.lambda_s", "s", spanMedian("spectral.lambda", 1e-3))
	r.set("core.new_s", "s", spanMedian("core.new", 1e-3))
	r.set("actor.new_s", "s", spanMedian("actor.new", 1e-3))

	// Engine layers: the actor runtime on the actor workload, the
	// shared-memory engine on the torus and on the actor workload's twin.
	sharedJobs, actorJobs := traced, []*jobResult(nil)
	if w.runtime != "" {
		sharedJobs, actorJobs = nil, traced
		if twin != nil {
			sharedJobs = []*jobResult{twin}
		}
	}
	engineLayer(r, "core", sharedJobs, w.rounds, true)
	engineLayer(r, "actor", actorJobs, w.rounds, false)
	straggler := 0.0
	for _, j := range actorJobs {
		straggler = math.Max(straggler, stragglerRatio(j.actReg))
	}
	r.set("actor.straggler_ratio", "ratio", straggler)
	boundary := 0.0
	for _, j := range actorJobs {
		snap := telemetry.TakeSnapshot(j.actReg, nil)
		for _, c := range snap.Counters {
			if c.Name == "diffusionlb_actor_messages_sent_total" {
				boundary = c.Value / float64(w.rounds)
			}
		}
	}
	r.set("actor.boundary_msgs_per_round", "count", boundary)

	last := traced[len(traced)-1]
	r.set("shard.fanout_us", "us", last.fanoutUS)
	r.set("shard.arc_imbalance", "ratio", last.imbalance)

	// Runner layers: per-round means over the traced jobs' rounds, and the
	// round's self time (its wall time minus its children).
	children := map[string]float64{}
	var rounds, self []float64
	for id, s := range tr.spans {
		if s.Name != "sim.round" || tr.spans[tr.spans[s.Parent].Parent].Name != "job" {
			continue
		}
		var sum float64
		for _, c := range tr.spans[id+1:] {
			if c.Start >= s.End {
				break
			}
			if c.Parent == id {
				sum += c.ms()
				children[c.Name] += c.ms()
			}
		}
		rounds = append(rounds, s.ms())
		self = append(self, s.ms()-sum)
		if s.ms()-sum < 0 {
			r.fail("span accounting: round children (%.3f ms) exceed the round (%.3f ms)", sum, s.ms())
		}
	}
	nr := float64(len(rounds))
	r.set("sim.round_ms", "ms", meanOf(rounds))
	r.set("sim.self_ms", "ms", meanOf(self))
	r.set("sim.step_ms", "ms", (children["core.step"]+children["actor.step"])/nr)
	for _, name := range []string{"sim.policy", "sim.inject", "sim.retarget", "workload.deltas", "envdyn.factors"} {
		r.set(name+"_ms", "ms", children[name]/nr)
	}
	for _, m := range sim.DefaultMetrics() {
		name := "sim.metric." + m.Name()
		r.set(name+"_ms", "ms", children[name]/nr)
	}
	var tracedP50 []float64
	for _, j := range traced {
		tracedP50 = append(tracedP50, median(j.roundMS))
	}
	r.set("trace.overhead_frac", "ratio", median(tracedP50)/median(base.roundMS)-1)
	r.workingSet = last.footprint
}

// fanoutUS is the median cost of one shard.Layout.Run over g at 2 workers
// with an empty body: the fan-out and join alone.
func fanoutUS(g *graph.Graph) float64 {
	lay := shard.ForWorkers(g, 2)
	body := func(s, lo, hi int) {}
	fan := make([]float64, 0, 2000)
	for i := 0; i < cap(fan); i++ {
		t0 := time.Now()
		lay.Run(2, body)
		fan = append(fan, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(fan)
}

// engineLayer reports one engine's step latency, allocations, footprint and
// traffic from its traced jobs; a nonzero allocation count on the
// shared-memory engine fails the run (its steady state allocates nothing).
func engineLayer(r *run, layer string, jobs []*jobResult, rounds int, zeroAllocs bool) {
	var steps []float64
	var allocs []float64
	var bytesPerArc, tokens, msgs float64
	for _, s := range r.tr.named(layer + ".step") {
		steps = append(steps, s.ms())
	}
	for _, j := range jobs {
		// The first step of a job can touch fresh pages and lazily grown
		// buffers; the steady state starts with the second.
		for _, a := range j.probe.allocs[1:] {
			allocs = append(allocs, float64(a))
		}
		bytesPerArc = float64(j.engBytes) / float64(j.arcs)
		tokens = float64(j.traffic[0]) / float64(rounds)
		msgs = float64(j.traffic[1]) / float64(rounds)
	}
	p50 := 0.0
	if len(steps) > 0 {
		p50 = median(steps)
	}
	mean := meanOf(allocs)
	if zeroAllocs && mean != 0 {
		r.fail("%s engine allocated %.2f objects per step with the collector held off, want 0", layer, mean)
	}
	r.set(layer+".step_ms_p50", "ms", p50)
	r.set(layer+".allocs_per_step", "count", mean)
	r.set(layer+".bytes_per_arc", "B/arc", bytesPerArc)
	if layer == "core" {
		r.set("core.tokens_moved_per_round", "count", tokens)
		r.set("core.messages_per_round", "count", msgs)
	}
}

// stragglerRatio is the slowest actor's total round time over the mean
// across actors, from the actor probe's per-actor round histograms.
func stragglerRatio(reg *telemetry.Registry) float64 {
	var sums []float64
	for _, h := range telemetry.TakeSnapshot(reg, nil).Histograms {
		if h.Name == "diffusionlb_actor_round_seconds" {
			sums = append(sums, h.Sum)
		}
	}
	if len(sums) == 0 || meanOf(sums) == 0 {
		return 0
	}
	max := 0.0
	for _, s := range sums {
		max = math.Max(max, s)
	}
	return max / meanOf(sums)
}

// arcImbalance is the largest shard's arc count over the mean.
func arcImbalance(lay *shard.Layout) float64 {
	var arcs []float64
	for s := 0; s < lay.Shards(); s++ {
		lo, hi := lay.ArcRange(s)
		arcs = append(arcs, float64(hi-lo))
	}
	max := 0.0
	for _, a := range arcs {
		max = math.Max(max, a)
	}
	return max / meanOf(arcs)
}

// The sweep grid: 3 graphs × 2 speeds × 2 schemes × 2 workloads × 2
// policies × replicates cells.
var sweepGraphs = []string{"torus2d:32x32", "hypercube:10", "regular:4096:8"}

const (
	sweepRounds     = 40
	sweepReplicates = 2
	sweepWorkers    = 2
	// sweepSeeds is how many grid seeds an untraced run rotates through;
	// it runs each at least twice.
	sweepSeeds = 6
)

// sweepSpec is the grid; the caller sets its BaseSeed.
func sweepSpec() sweep.Spec {
	return sweep.Spec{
		Graphs:     sweepGraphs,
		Schemes:    []string{"fos", "sos"},
		Speeds:     []string{"", "twoclass:0.25:4"},
		Workloads:  []string{"", "poisson:0.1+burst:20:200000:0"},
		Policies:   []string{"", "adaptive:16:64:10"},
		Replicates: sweepReplicates,
		Rounds:     sweepRounds,
		Every:      1,
	}
}

// sinkWriter is the sweep's output sink: it hashes and counts the JSON
// bytes and, in a traced run, times every write.
type sinkWriter struct {
	h       hash.Hash
	keep    []byte // the first job's bytes, for the structure check
	bytes   int64
	tr      *tracer
	parent  int
	writeMS float64
}

func (s *sinkWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	id := s.tr.beginAt("sweep.sink_write", s.parent, t0)
	s.h.Write(p)
	if s.keep != nil {
		s.keep = append(s.keep, p...)
	}
	s.bytes += int64(len(p))
	s.tr.end(id)
	s.writeMS += float64(time.Since(t0)) / 1e6
	return len(p), nil
}

// goroutineID reads the calling goroutine's id from its stack header. The
// sweep reports finished cells from its worker goroutines; the id ties each
// cell to the previous cell on the same worker, which is when it started.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return id
}

// sweepJob is one StreamJSON of the grid and what the benchmark saw of it.
type sweepJob struct {
	wall, first, tail time.Duration
	cellRate          float64   // finished cells per second after the first
	cellMS            []float64 // durations of cells whose start is known
	gapsMS            []float64 // between consecutive finished cells
	cells             int
	digest            string
	sinkBytes         int64
	sinkMS            float64
	busyMean          float64
	doc               []byte
}

func runSweepJob(r *run, spec sweep.Spec, traced, keep bool) (*sweepJob, error) {
	tr := r.tr
	if !traced {
		tr = nil
	}
	jobSpan := tr.begin("job", -1)
	defer tr.end(jobSpan)
	streamSpan := tr.begin("sweep.stream", jobSpan)
	sink := &sinkWriter{h: sha256.New(), tr: tr, parent: streamSpan}
	if keep {
		sink.keep = make([]byte, 0, 1<<20)
	}

	var mu sync.Mutex
	var done []time.Time
	lastOn := map[uint64]time.Time{}
	var cellMS []float64
	opts := sweep.Options{Workers: sweepWorkers}
	opts.OnCell = func(int, int) {
		now := time.Now()
		gid := goroutineID()
		mu.Lock()
		defer mu.Unlock()
		done = append(done, now)
		if prev, ok := lastOn[gid]; ok {
			cellMS = append(cellMS, float64(now.Sub(prev))/1e6)
			tr.endAt(tr.beginAt("sweep.cell", streamSpan, prev), now)
		}
		lastOn[gid] = now
	}

	// The traced run samples the sweep probe's busy-worker gauge.
	var busy []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if traced {
		reg := telemetry.NewRegistry()
		opts.Telemetry = telemetry.NewSweepProbe(reg, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var total, completed, b float64
					snap := telemetry.TakeSnapshot(reg, nil)
					for _, g := range snap.Gauges {
						switch g.Name {
						case "diffusionlb_sweep_cells_total":
							total = g.Value
						case "diffusionlb_sweep_workers_busy":
							b = g.Value
						}
					}
					for _, c := range snap.Counters {
						if c.Name == "diffusionlb_sweep_cells_completed_total" {
							completed = c.Value
						}
					}
					if total > 0 && completed < total {
						busy = append(busy, b)
					}
				}
			}
		}()
	}

	t0 := time.Now()
	err := sweep.StreamJSON(context.Background(), spec, opts, sink)
	end := time.Now()
	close(stop)
	wg.Wait()
	tr.endAt(streamSpan, end)
	if err != nil {
		return nil, err
	}
	if len(done) == 0 {
		return nil, fmt.Errorf("sweep finished without a cell")
	}
	j := &sweepJob{
		wall:      end.Sub(t0),
		first:     done[0].Sub(t0),
		tail:      end.Sub(done[len(done)-1]),
		cellMS:    cellMS,
		cells:     len(done),
		digest:    hex.EncodeToString(sink.h.Sum(nil)[:12]),
		sinkBytes: sink.bytes,
		sinkMS:    sink.writeMS,
		busyMean:  meanOf(busy),
		doc:       sink.keep,
	}
	if len(done) > 1 {
		j.cellRate = float64(len(done)-1) / done[len(done)-1].Sub(done[0]).Seconds()
	}
	for i := 1; i < len(done); i++ {
		j.gapsMS = append(j.gapsMS, float64(done[i].Sub(done[i-1]))/1e6)
	}
	return j, nil
}

// checkSweepDoc parses the streamed JSON and checks its shape: one group
// per grid coordinate, each with the requested replicates.
func checkSweepDoc(doc []byte, spec sweep.Spec) error {
	var parsed struct {
		Groups []struct {
			Replicates int `json:"replicates"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return fmt.Errorf("sweep JSON does not parse: %w", err)
	}
	want := spec.NumCells() / spec.Replicates
	if len(parsed.Groups) != want {
		return fmt.Errorf("sweep JSON has %d groups, want %d", len(parsed.Groups), want)
	}
	for i, g := range parsed.Groups {
		if g.Replicates != spec.Replicates {
			return fmt.Errorf("sweep group %d has %d replicates, want %d", i, g.Replicates, spec.Replicates)
		}
	}
	return nil
}

func runSweepWorkload(r *run) error {
	spec := sweepSpec()
	cells := spec.NumCells()
	perGraph := cells / len(sweepGraphs)

	// Arc-updates per grid, and the computed footprint of the grid's
	// largest cell (graph, operator and engine of the biggest system).
	var arcUpdates float64
	var largest *graph.Graph
	for _, gs := range sweepGraphs {
		g, err := graph.FromSpec(gs, randx.Mix(r.seed, saltGraph))
		if err != nil {
			return err
		}
		arcUpdates += float64(perGraph) * float64(sweepRounds) * float64(g.NumArcs())
		if largest == nil || g.NumArcs() > largest.NumArcs() {
			largest = g
		}
	}
	sp, err := hetero.SpeedsFromSpec("twoclass:0.25:4", largest.NumNodes(), randx.Mix(r.seed, saltSpeeds))
	if err != nil {
		return err
	}
	op, err := spectral.NewOperator(largest, sp, nil)
	if err != nil {
		return err
	}
	x0, err := metrics.PointLoad(largest.NumNodes(), 1000*int64(largest.NumNodes()), 0)
	if err != nil {
		return err
	}
	eng, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5}, core.RandomizedRounder{}, 1, x0)
	if err != nil {
		return err
	}
	r.nodes, r.arcs = largest.NumNodes(), largest.NumArcs()
	r.workingSet = largest.MemoryFootprint() + op.MemoryFootprint() + eng.MemoryFootprint()

	// Job k runs the grid under base seed gridSeed(k mod sweepSeeds). The
	// power iteration's cost depends on the random systems, so set-up time
	// varies by seed; a run's median over several grid seeds is steadier
	// than one seed's. Every seed after the first cycle repeats one already
	// run, and its JSON digest must match.
	gridSeed := func(k int) uint64 { return randx.Mix(r.seed, saltGrid, uint64(k%sweepSeeds)) }
	var jobs []*sweepJob
	digests := map[uint64]string{}
	record := func(j *sweepJob, gs uint64, err error) {
		r.attempted++
		if err == nil && j.cells != cells {
			err = fmt.Errorf("sweep reported %d cells, want %d", j.cells, cells)
		}
		if err == nil && j.doc != nil {
			err = checkSweepDoc(j.doc, spec)
			j.doc = nil
		}
		if prev, ok := digests[gs]; err == nil && ok && j.digest != prev {
			err = fmt.Errorf("sweep JSON digest %s differs from %s on identical inputs", j.digest, prev)
		} else if err == nil {
			digests[gs] = j.digest
		}
		if err != nil {
			r.fail("job %d: %v", r.attempted, err)
			return
		}
		jobs = append(jobs, j)
	}

	start := time.Now()
	if r.trace {
		spec.BaseSeed = gridSeed(0)
		base, err := runSweepJob(r, spec, false, true)
		record(base, spec.BaseSeed, err)
		systemLayers(r, spec)
		var traced []*sweepJob
		for len(traced) < 1 || time.Since(start) < r.seconds {
			j, err := runSweepJob(r, spec, true, false)
			record(j, spec.BaseSeed, err)
			if err != nil || base == nil {
				break
			}
			traced = append(traced, j)
		}
		if base == nil || len(traced) == 0 {
			return nil
		}
		var gaps, tails, sinks, bytes, busy, walls []float64
		for _, j := range traced {
			gaps = append(gaps, j.gapsMS...)
			tails = append(tails, float64(j.tail)/1e6)
			sinks = append(sinks, j.sinkMS)
			bytes = append(bytes, float64(j.sinkBytes))
			busy = append(busy, j.busyMean)
			walls = append(walls, j.wall.Seconds())
		}
		r.set("sweep.cell_gap_ms_p50", "ms", median(gaps))
		r.set("sweep.tail_ms", "ms", median(tails))
		r.set("sweep.sink_write_ms", "ms", median(sinks))
		r.set("sweep.sink_bytes", "B", median(bytes))
		r.set("sweep.workers_busy_mean", "count", median(busy))
		r.set("trace.overhead_frac", "ratio", median(walls)/base.wall.Seconds()-1)
		return nil
	}

	for k := 0; k < 2*sweepSeeds || time.Since(start) < r.seconds; k++ {
		spec.BaseSeed = gridSeed(k)
		j, err := runSweepJob(r, spec, false, k == 0)
		record(j, spec.BaseSeed, err)
		if r.attempted >= maxJobs {
			break
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	for _, j := range jobs {
		for _, ms := range j.cellMS {
			r.roundSamples = append(r.roundSamples, ms/sweepRounds)
		}
		r.addSample("setup_s", j.first.Seconds())
		r.addSample("cells_per_s", j.cellRate)
		r.addSample("round_ms_p50", median(j.cellMS)/sweepRounds)
	}
	cellRate := median(r.jobSamples["cells_per_s"])
	r.set("setup_s", "s", median(r.jobSamples["setup_s"]))
	// The cell phase's rate in arc units: cells per second times the mean
	// arc-updates of a cell.
	r.set("arc_updates_per_s", "1/s", cellRate*arcUpdates/float64(cells))
	r.set("round_ms_p50", "ms", median(r.roundSamples))
	r.set("bytes_per_arc", "B/arc", float64(r.workingSet)/float64(r.arcs))
	r.set("cells_per_s", "1/s", cellRate)
	return nil
}

// systemLayers times, from outside the sweep, the set-up layers the sweep
// runs once per (graph, speeds) system before its first cell: the graph
// build, the operator and — for systems without a closed-form λ, i.e.
// every heterogeneous system and the random-regular graph — the power
// iteration at the sweep's tolerance.
func systemLayers(r *run, spec sweep.Spec) {
	var build, oper, lambda float64
	for gi, gs := range spec.Graphs {
		for si, ss := range spec.Speeds {
			t0 := time.Now()
			g, err := graph.FromSpec(gs, randx.Mix(r.seed, saltGraph, uint64(gi)))
			if err != nil {
				r.fail("system %s: %v", gs, err)
				return
			}
			t1 := time.Now()
			sp := hetero.Homogeneous(g.NumNodes())
			if ss != "" {
				sp, err = hetero.SpeedsFromSpec(ss, g.NumNodes(), randx.Mix(r.seed, saltSpeeds, uint64(gi), uint64(si)))
				if err != nil {
					r.fail("system %s %s: %v", gs, ss, err)
					return
				}
			}
			t2 := time.Now()
			op, err := spectral.NewOperator(g, sp, nil)
			if err != nil {
				r.fail("system %s %s: %v", gs, ss, err)
				return
			}
			t3 := time.Now()
			build += t1.Sub(t0).Seconds()
			oper += t3.Sub(t2).Seconds()
			if strings.HasPrefix(gs, "regular:") || ss != "" {
				id := r.tr.beginAt("spectral.lambda", -1, t3)
				if _, _, err := op.SecondEigenvalue(spectral.PowerOptions{Tol: 1e-10}); err != nil {
					r.fail("system %s %s: lambda: %v", gs, ss, err)
					return
				}
				r.tr.end(id)
				lambda += time.Since(t3).Seconds()
			}
		}
	}
	r.set("graph.build_s", "s", build)
	r.set("spectral.operator_s", "s", oper)
	r.set("spectral.lambda_s", "s", lambda)
}
