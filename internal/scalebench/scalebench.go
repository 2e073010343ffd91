// Package scalebench measures the shard-partitioned step path at paper
// scale: node-updates per second, resident bytes per node and allocations
// per round for FOS and SOS on a 2-d torus and a random-regular graph.
//
// It is an experiment driver, not engine code: it reads the wall clock and
// the allocator counters, so it deliberately sits outside the lbvet
// nodeterminism scope (the engines it drives remain pure functions of spec
// and seed — that contract is pinned by the golden equivalence tests, not
// here).
package scalebench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
)

// Schema identifies the BENCH JSON layout; bump on breaking changes.
// v2 adds the repeats field (each cell is now the median of Repeat
// independent measurements) and the optional telemetry-on rows.
const Schema = "diffusionlb/bench-scale/v2"

// Config sizes one benchmark run.
type Config struct {
	// N is the node count. Torus dimensions are the largest w×h split of N
	// (w ≤ h, both even for wrap edges); the random-regular graph uses N
	// exactly. Default 1<<20.
	N int
	// Degree is the random-regular degree. Default 8.
	Degree int
	// Rounds is the number of timed rounds per entry. Default 10.
	Rounds int
	// Warmup rounds run before timing starts (the first SOS round is an FOS
	// round and the first touch of every page is a fault). Default 3.
	Warmup int
	// Workers is the per-step worker count. Default 0 (sequential).
	Workers int
	// Actors is the actor count for the message-passing runtime entries the
	// grid grows next to every shared-memory cell: one barrier entry
	// (actor:K) and, when Stale > 0, one bounded-staleness entry
	// (actor:K,stale=S). Default 4; negative disables the actor entries.
	Actors int
	// Stale is the staleness bound of the bounded-staleness actor entry.
	// Default 2; negative keeps only the barrier actor entry.
	Stale int
	// Repeat is how many times each cell is measured; the reported entry is
	// the median by node-updates/sec. Repeating squeezes out the machine
	// noise that made single-shot random-regular throughput swing 15-25%
	// between otherwise identical runs. Default 3; negative means 1.
	Repeat int
	// Telemetry adds a telemetry-on twin next to every cell: the same
	// measurement with a live registry, trace and probes attached, so the
	// off/on row pairs pin the recording overhead.
	Telemetry bool
	// Probe, when non-nil, receives the harness's own live progress
	// (cells completed/total) — this is lbbench's -telemetry surface, not
	// part of the measurement.
	Probe *telemetry.SweepProbe
	// Seed drives graph construction and the rounding streams. Default 1.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 1 << 20
	}
	if c.Degree <= 0 {
		c.Degree = 8
	}
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 3
	}
	if c.Actors == 0 {
		c.Actors = 4
	} else if c.Actors < 0 {
		c.Actors = 0
	}
	if c.Stale < 0 {
		c.Stale = 0
	} else if c.Stale == 0 {
		c.Stale = 2
	}
	if c.Repeat == 0 {
		c.Repeat = 3
	} else if c.Repeat < 0 {
		c.Repeat = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Entry is one (graph, scheme) measurement.
type Entry struct {
	Graph  string `json:"graph"`
	Nodes  int    `json:"nodes"`
	Arcs   int    `json:"arcs"`
	Scheme string `json:"scheme"`
	Engine string `json:"engine"`
	// Runtime is the actor-runtime spec ("actor:K[,stale=S]") for
	// message-passing entries, empty for the shared-memory engine.
	Runtime string `json:"runtime,omitempty"`
	// Telemetry marks rows measured with a live registry, trace and probes
	// attached; the unmarked twin row is the same cell without them.
	Telemetry bool `json:"telemetry,omitempty"`
	Rounds    int  `json:"rounds"`
	Shards    int  `json:"shards"`
	// NodeUpdatesPerSec is nodes × rounds / elapsed seconds — the headline
	// throughput number.
	NodeUpdatesPerSec float64 `json:"node_updates_per_sec"`
	// NsPerRound is elapsed nanoseconds per timed round.
	NsPerRound float64 `json:"ns_per_round"`
	// BytesPerNode is the resident footprint (graph + operator + engine)
	// divided by the node count.
	BytesPerNode float64 `json:"bytes_per_node"`
	// AllocsPerRound is the allocator Mallocs delta across the timed rounds
	// divided by the round count; the steady-state contract is 0 for
	// sequential runs (goroutine spawns are the only multi-worker cost).
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// Result is the BENCH JSON document.
type Result struct {
	Schema  string `json:"schema"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	// Repeats is how many measurements each entry is the median of.
	Repeats int     `json:"repeats"`
	Seed    uint64  `json:"seed"`
	Entries []Entry `json:"entries"`
}

// torusDims splits n into the most square w×h torus with both sides ≥ 3
// (so wrap edges are simple); powers of two split exactly.
func torusDims(n int) (w, h int) {
	w = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	h = n / w
	if w < 3 {
		// Prime or near-prime n: fall back to the largest even square-ish
		// torus not exceeding n.
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return side, side
	}
	return w, h
}

// runtimeSpecs lists the execution runtimes the grid measures per
// (graph, scheme) cell: the shared-memory engine, the barrier actor
// runtime and — when a staleness bound is configured — the
// bounded-staleness actor runtime.
func (c Config) runtimeSpecs() []string {
	specs := []string{""}
	if c.Actors > 0 {
		specs = append(specs, fmt.Sprintf("actor:%d", c.Actors))
		if c.Stale > 0 {
			specs = append(specs, fmt.Sprintf("actor:%d,stale=%d", c.Actors, c.Stale))
		}
	}
	return specs
}

// Run executes the full benchmark grid: {torus2d, random-regular} ×
// {FOS, SOS} × {shared-memory, actor barrier, actor stale} — with a
// telemetry-on twin per cell when cfg.Telemetry is set — each cell the
// median of cfg.Repeat measurements, with randomized rounding. progress,
// when non-nil, receives one line per completed stage.
func Run(cfg Config, progress func(string)) (*Result, error) {
	cfg = cfg.withDefaults()
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}

	w, h := torusDims(cfg.N)
	say("building torus2d:%dx%d", w, h)
	torus, err := graph.Torus2D(w, h)
	if err != nil {
		return nil, fmt.Errorf("scalebench: torus: %w", err)
	}
	say("building randreg:%d:d=%d", cfg.N, cfg.Degree)
	rr, err := graph.RandomRegular(cfg.N, cfg.Degree, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("scalebench: random regular: %w", err)
	}

	telemetryVariants := []bool{false}
	if cfg.Telemetry {
		telemetryVariants = append(telemetryVariants, true)
	}
	cells := 4 * len(cfg.runtimeSpecs()) * len(telemetryVariants)
	cfg.Probe.Begin(cells)

	res := &Result{Schema: Schema, N: cfg.N, Workers: cfg.Workers, Repeats: cfg.Repeat, Seed: cfg.Seed}
	done := 0
	for _, g := range []*graph.Graph{torus, rr} {
		for _, kind := range []core.Kind{core.FOS, core.SOS} {
			for _, rt := range cfg.runtimeSpecs() {
				for _, tel := range telemetryVariants {
					label := rt
					if label == "" {
						label = "shared"
					}
					if tel {
						label += "+telemetry"
					}
					say("measuring %s/%s/%s (%d rounds x %d repeats)", g.Name(), kind, label, cfg.Rounds, cfg.Repeat)
					cfg.Probe.CellStart()
					e, err := benchMedian(g, kind, rt, tel, cfg)
					if err != nil {
						return nil, err
					}
					res.Entries = append(res.Entries, e)
					done++
					cfg.Probe.CellDone(done, cells)
				}
			}
		}
	}
	return res, nil
}

// benchMedian measures one cell cfg.Repeat times and returns the median
// measurement by node-updates/sec (the whole entry, so its footprint and
// allocation numbers come from one coherent run).
func benchMedian(g *graph.Graph, kind core.Kind, rtSpec string, telemetryOn bool, cfg Config) (Entry, error) {
	entries := make([]Entry, 0, cfg.Repeat)
	for i := 0; i < cfg.Repeat; i++ {
		e, err := benchOne(g, kind, rtSpec, telemetryOn, cfg)
		if err != nil {
			return Entry{}, err
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].NodeUpdatesPerSec < entries[j].NodeUpdatesPerSec
	})
	return entries[len(entries)/2], nil
}

// stepper is the slice of the engine surface the timed loop needs.
type stepper interface {
	Step()
	MemoryFootprint() int64
	ShardLayout() *shard.Layout
}

// benchOne measures one (graph, scheme, runtime, telemetry) cell: build
// the operator and an engine over a spread initial load, warm up, then
// time Rounds steps around an allocator-counter read. With telemetryOn, a
// live registry and trace are attached exactly as serving mode wires them:
// the actor runtime carries a full ActorProbe in its hot path, and the
// harness records the per-round signals whose cost belongs to the
// telemetry layer itself (latency stopwatch, counters, gauge stores, trace
// emit). The O(n) metric scans that feed the Runner's gauge values are the
// caller's cost, not the layer's, so they stay out of the timed loop and
// the gauge inputs here are zero.
func benchOne(g *graph.Graph, kind core.Kind, rtSpec string, telemetryOn bool, cfg Config) (Entry, error) {
	n := g.NumNodes()
	op, err := spectral.NewOperator(g, hetero.Homogeneous(n), nil)
	if err != nil {
		return Entry{}, fmt.Errorf("scalebench: operator: %w", err)
	}
	// A spread, unbalanced start keeps flows non-trivial for the whole
	// timed window (a point load would drain to local balance in a few
	// rounds at small N).
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = int64((i*i)%257) * 4
	}
	var reg *telemetry.Registry
	var tr *telemetry.Trace
	var probe *telemetry.RunProbe
	if telemetryOn {
		reg = telemetry.NewRegistry()
		tr = telemetry.NewTrace(256)
		probe = telemetry.NewRunProbe(reg, tr)
	}

	var proc stepper
	engine := "discrete/randomized"
	if rtSpec != "" {
		opts, err := actor.FromSpec(rtSpec)
		if err != nil {
			return Entry{}, fmt.Errorf("scalebench: runtime: %w", err)
		}
		rt, err := actor.New(op, kind, 1.9, core.RandomizedRounder{}, cfg.Seed, x0, opts)
		if err != nil {
			return Entry{}, fmt.Errorf("scalebench: actor runtime: %w", err)
		}
		if telemetryOn {
			rt.SetTelemetry(telemetry.NewActorProbe(reg, tr, opts.Actors, false))
		}
		proc = rt
		engine = "actor/randomized"
	} else {
		lay := shard.ForWorkers(g, cfg.Workers)
		proc, err = core.NewDiscrete(
			core.Config{Op: op, Kind: kind, Beta: 1.9, Workers: cfg.Workers, Layout: lay},
			core.RandomizedRounder{}, cfg.Seed, x0)
		if err != nil {
			return Entry{}, fmt.Errorf("scalebench: engine: %w", err)
		}
	}

	for i := 0; i < cfg.Warmup; i++ {
		proc.Step()
	}

	// Quiesce the collector before the baseline read and hold it off
	// across the timed window: with Repeat > 1 the previous run's garbage
	// is still being collected, and a GC cycle inside the window shows up
	// as phantom mallocs on an otherwise allocation-free path (and as
	// collector time in the throughput).
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now() //lint:allow nodeterminism benchmark harness: wall-clock throughput is the measurement, not engine state
	if telemetryOn {
		for i := 0; i < cfg.Rounds; i++ {
			sw := probe.StartRound()
			proc.Step()
			sw.Stop()
			probe.RoundCompleted(i, 0, 0, 0, 0)
		}
	} else {
		for i := 0; i < cfg.Rounds; i++ {
			proc.Step()
		}
	}
	elapsed := time.Since(start) //lint:allow nodeterminism benchmark harness: wall-clock throughput is the measurement, not engine state
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(gcPercent)

	bytes := g.MemoryFootprint() + op.MemoryFootprint() + proc.MemoryFootprint()
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = 1e-9
	}
	return Entry{
		Graph:             g.Name(),
		Nodes:             n,
		Arcs:              g.NumArcs(),
		Scheme:            kind.String(),
		Engine:            engine,
		Runtime:           rtSpec,
		Telemetry:         telemetryOn,
		Rounds:            cfg.Rounds,
		Shards:            proc.ShardLayout().Shards(),
		NodeUpdatesPerSec: float64(n) * float64(cfg.Rounds) / sec,
		NsPerRound:        float64(elapsed.Nanoseconds()) / float64(cfg.Rounds),
		BytesPerNode:      float64(bytes) / float64(n),
		AllocsPerRound:    float64(m1.Mallocs-m0.Mallocs) / float64(cfg.Rounds),
	}, nil
}
