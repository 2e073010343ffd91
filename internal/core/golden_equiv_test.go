package core

import (
	"fmt"
	"math"
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/spectral"
)

// The golden equivalence suite: every engine, driven through a dynamics
// timeline (injection, speed events with retargets, a β change, a scheme
// switch), must produce bit-identical state on the shard-partitioned path
// as the preserved pre-refactor reference (golden_ref_test.go) — across
// shard counts 1, 2 and 7, against a reference running the old 4-chunk
// grouping. The comparisons are exact: integer slices by equality, float
// slices by math.Float64bits.

// goldenRounds is long enough for every timeline event to land and for
// several SOS rounds to run on each side of each event.
const goldenRounds = 60

// goldenGraph is a 64×64 torus: n = 4096 is exactly shard.MinShardNodes,
// so multi-worker configs really do split into multiple shards.
func goldenGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Torus2D(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenSpeeds builds the two heterogeneous speed vectors the timeline
// alternates between. Both stay ≥ 1, keeping the operator diagonal
// non-negative under the default α rule on a degree-4 torus.
func goldenSpeeds(t *testing.T, n int) (sp1, sp2 *hetero.Speeds) {
	t.Helper()
	s1 := make([]float64, n)
	s2 := make([]float64, n)
	for i := 0; i < n; i++ {
		s1[i] = 1 + float64(i%5)*0.5
		s2[i] = 1 + float64(i%3)*0.25
	}
	var err error
	if sp1, err = hetero.New(s1); err != nil {
		t.Fatal(err)
	}
	if sp2, err = hetero.New(s2); err != nil {
		t.Fatal(err)
	}
	return sp1, sp2
}

// goldenInitial spreads load unevenly so flows stay non-trivial for the
// whole run.
func goldenInitial(n int) []int64 {
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = int64((i * i) % 97)
	}
	return x0
}

func goldenDeltas(n int) []int64 {
	deltas := make([]int64, n)
	for i := range deltas {
		deltas[i] = int64(i%7) - 3
	}
	return deltas
}

// goldenHooks lets one timeline driver steer a (reference, new) pair of any
// engine family. Each hook applies the event to BOTH processes.
type goldenHooks struct {
	step     func()
	inject   func([]int64) error
	retarget func(*spectral.Operator) error
	setBeta  func(float64) error
	setKind  func(Kind)
	check    func(t *testing.T, round int)
}

// runGoldenTimeline drives the pair through goldenRounds rounds of the PR's
// dynamics timeline. The operator is shared by the pair (as the sim runner
// shares it), so each speed event is a single in-place Reweight followed by
// a Retarget on both sides.
func runGoldenTimeline(t *testing.T, op *spectral.Operator, sp1, sp2 *hetero.Speeds, startKind Kind, h goldenHooks) {
	t.Helper()
	n := op.Graph().NumNodes()
	deltas := goldenDeltas(n)
	flip := FOS
	if startKind == FOS {
		flip = SOS
	}
	for round := 0; round < goldenRounds; round++ {
		switch round {
		case 10:
			if err := h.inject(deltas); err != nil {
				t.Fatalf("round %d: inject: %v", round, err)
			}
		case 20:
			if err := op.Reweight(sp2); err != nil {
				t.Fatalf("round %d: reweight: %v", round, err)
			}
			if err := h.retarget(op); err != nil {
				t.Fatalf("round %d: retarget: %v", round, err)
			}
		case 30:
			if err := h.setBeta(1.7); err != nil {
				t.Fatalf("round %d: set beta: %v", round, err)
			}
		case 40:
			h.setKind(flip)
		case 50:
			if err := op.Reweight(sp1); err != nil {
				t.Fatalf("round %d: reweight back: %v", round, err)
			}
			if err := h.retarget(op); err != nil {
				t.Fatalf("round %d: retarget: %v", round, err)
			}
		}
		h.step()
		h.check(t, round)
	}
}

// eqInt64 asserts exact equality of two integer vectors, reporting the
// first divergent index.
func eqInt64(t *testing.T, round int, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %s: length %d vs %d", round, what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("round %d: %s[%d] = %d, reference %d", round, what, i, got[i], want[i])
		}
	}
}

// eqBits asserts bit-identity of two float vectors.
func eqBits(t *testing.T, round int, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("round %d: %s: length %d vs %d", round, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("round %d: %s[%d] = %x (%g), reference %x (%g)",
				round, what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestGoldenDiscreteMatchesPreRefactor proves the fused, double-buffered,
// shard-partitioned Discrete step path is bit-identical to the old
// scheduled-then-rounded single-buffer path: loads, integer flows and the
// continuous scheduled flows match after every round of the dynamics
// timeline, for every rounder, both start kinds, across 1, 2 and 7 shards
// (the reference runs the old 4-chunk grouping).
func TestGoldenDiscreteMatchesPreRefactor(t *testing.T) {
	runGoldenDiscrete(t, goldenGraph(t), true)
}

// TestGoldenDiscreteNonRegularMatchesPreRefactor runs the same suite on a
// 64×64 grid: its degrees 2–4 give per-arc α under the max-degree rule,
// while the torus's uniform α is stored as one scalar, so the pair covers
// both operator representations against the per-arc reference copy.
func TestGoldenDiscreteNonRegularMatchesPreRefactor(t *testing.T) {
	runGoldenDiscrete(t, goldenGrid(t), false)
}

// goldenGrid is the non-regular golden graph: a 64×64 grid, n = 4096.
func goldenGrid(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Grid2D(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireAlphaForm fails unless op stores α in the expected form, so each
// golden graph really exercises the representation it is meant to.
func requireAlphaForm(t *testing.T, op *spectral.Operator, uniform bool) {
	t.Helper()
	if _, ok := op.AlphaView().Uniform(); ok != uniform {
		t.Fatalf("operator α uniform = %v, want %v", ok, uniform)
	}
}

// runGoldenDiscrete is the Discrete golden suite on g; uniform says which
// α representation g's operator must use.
func runGoldenDiscrete(t *testing.T, g *graph.Graph, uniform bool) {
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	const seed = 42

	for _, kind := range []Kind{FOS, SOS} {
		for _, name := range []string{"randomized", "floor", "nearest", "bernoulli"} {
			for _, workers := range []int{1, 2, 7} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", kind, name, workers), func(t *testing.T) {
					rounder, ok := RounderByName(name)
					if !ok {
						t.Fatalf("unknown rounder %q", name)
					}
					op, err := spectral.NewOperator(g, sp1, nil)
					if err != nil {
						t.Fatal(err)
					}
					requireAlphaForm(t, op, uniform)
					ref, err := newRefDiscrete(Config{Op: op, Kind: kind, Beta: 1.5, Workers: 4}, rounder, seed, x0)
					if err != nil {
						t.Fatal(err)
					}
					d, err := NewDiscrete(Config{Op: op, Kind: kind, Beta: 1.5, Workers: workers}, rounder, seed, x0)
					if err != nil {
						t.Fatal(err)
					}
					d.RecordScheduledFlows(true)
					runGoldenTimeline(t, op, sp1, sp2, kind, goldenHooks{
						step:   func() { ref.Step(); d.Step() },
						inject: func(dl []int64) error { return firstErr(ref.Inject(dl), d.Inject(dl)) },
						retarget: func(op *spectral.Operator) error {
							return firstErr(ref.Retarget(op), d.Retarget(op))
						},
						setBeta: func(b float64) error { return firstErr(ref.SetBeta(b), d.SetBeta(b)) },
						setKind: func(k Kind) { ref.SetKind(k); d.SetKind(k) },
						check: func(t *testing.T, round int) {
							eqInt64(t, round, "loads", d.LoadsInt(), ref.x)
							eqInt64(t, round, "flows", d.Flows(), ref.flows)
							eqBits(t, round, "scheduled", d.ScheduledFlows(), ref.scheduled)
						},
					})
					gotMin, gotSet := d.MinTransientInt()
					if gotMin != ref.minTransient || gotSet != ref.minTransientSet {
						t.Errorf("min transient %d/%v, reference %d/%v", gotMin, gotSet, ref.minTransient, ref.minTransientSet)
					}
					if d.NegativeTransientRounds() != ref.negTransientRounds {
						t.Errorf("negative transient rounds %d, reference %d",
							d.NegativeTransientRounds(), ref.negTransientRounds)
					}
				})
			}
		}
	}
}

// TestGoldenDiscreteHomogeneousMatchesPreRefactor covers the homogeneous
// fast path of passZ (the timeline still transitions to heterogeneous
// speeds and back, exercising both branches mid-run).
func TestGoldenDiscreteHomogeneousMatchesPreRefactor(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	_, sp2 := goldenSpeeds(t, n)
	spH := hetero.Homogeneous(n)
	x0 := goldenInitial(n)

	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			op, err := spectral.NewOperator(g, spH, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefDiscrete(Config{Op: op, Kind: SOS, Beta: 1.5, Workers: 4}, RandomizedRounder{}, 7, x0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.5, Workers: workers}, RandomizedRounder{}, 7, x0)
			if err != nil {
				t.Fatal(err)
			}
			runGoldenTimeline(t, op, spH, sp2, SOS, goldenHooks{
				step:   func() { ref.Step(); d.Step() },
				inject: func(dl []int64) error { return firstErr(ref.Inject(dl), d.Inject(dl)) },
				retarget: func(op *spectral.Operator) error {
					return firstErr(ref.Retarget(op), d.Retarget(op))
				},
				setBeta: func(b float64) error { return firstErr(ref.SetBeta(b), d.SetBeta(b)) },
				setKind: func(k Kind) { ref.SetKind(k); d.SetKind(k) },
				check: func(t *testing.T, round int) {
					eqInt64(t, round, "loads", d.LoadsInt(), ref.x)
					eqInt64(t, round, "flows", d.Flows(), ref.flows)
				},
			})
		})
	}
}

// TestGoldenContinuousMatchesPreRefactor proves the fused flow+apply kernel
// (and the homogeneous z-aliasing) reproduces the old separate-pass path
// bit for bit: float loads and flows match after every round of the
// timeline for both start kinds across 1, 2 and 7 shards.
func TestGoldenContinuousMatchesPreRefactor(t *testing.T) {
	runGoldenContinuous(t, goldenGraph(t))
}

// TestGoldenContinuousNonRegularMatchesPreRefactor is the continuous suite
// on the per-arc-α grid.
func TestGoldenContinuousNonRegularMatchesPreRefactor(t *testing.T) {
	runGoldenContinuous(t, goldenGrid(t))
}

// runGoldenContinuous is the Continuous golden suite on g.
func runGoldenContinuous(t *testing.T, g *graph.Graph) {
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	spH := hetero.Homogeneous(n)
	x0i := goldenInitial(n)
	x0 := make([]float64, n)
	for i, v := range x0i {
		x0[i] = float64(v)
	}

	cases := []struct {
		name  string
		kind  Kind
		start *hetero.Speeds
	}{
		{"FOS/hetero", FOS, sp1},
		{"SOS/hetero", SOS, sp1},
		{"SOS/homog", SOS, spH},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				op, err := spectral.NewOperator(g, tc.start, nil)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newRefContinuous(Config{Op: op, Kind: tc.kind, Beta: 1.5, Workers: 4}, x0)
				if err != nil {
					t.Fatal(err)
				}
				c, err := NewContinuous(Config{Op: op, Kind: tc.kind, Beta: 1.5, Workers: workers}, x0)
				if err != nil {
					t.Fatal(err)
				}
				runGoldenTimeline(t, op, tc.start, sp2, tc.kind, goldenHooks{
					step:   func() { ref.Step(); c.Step() },
					inject: func(dl []int64) error { return firstErr(ref.Inject(dl), c.Inject(dl)) },
					retarget: func(op *spectral.Operator) error {
						return firstErr(ref.Retarget(op), c.Retarget(op))
					},
					setBeta: func(b float64) error { return firstErr(ref.SetBeta(b), c.SetBeta(b)) },
					setKind: func(k Kind) { ref.SetKind(k); c.SetKind(k) },
					check: func(t *testing.T, round int) {
						eqBits(t, round, "loads", c.LoadsFloat(), ref.x)
						eqBits(t, round, "flows", c.Flows(), ref.flows)
					},
				})
				if math.Float64bits(c.MinTransient()) != math.Float64bits(ref.minTransient) {
					t.Errorf("min transient %g, reference %g", c.MinTransient(), ref.minTransient)
				}
			})
		}
	}
}

// TestGoldenCumulativeMatchesPreRefactor proves the sharded cumulative
// bookkeeping (and the wrapped continuous reference underneath it) matches
// the old path exactly: integer loads, cumulative sent flows, the float
// cumulative flows Φ and the continuous reference trajectory are all
// bit-identical through the timeline.
func TestGoldenCumulativeMatchesPreRefactor(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	x0 := goldenInitial(n)

	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			op, err := spectral.NewOperator(g, sp1, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefCumulative(Config{Op: op, Kind: SOS, Beta: 1.5, Workers: 4}, x0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCumulativeDiscrete(Config{Op: op, Kind: SOS, Beta: 1.5, Workers: workers}, x0)
			if err != nil {
				t.Fatal(err)
			}
			runGoldenTimeline(t, op, sp1, sp2, SOS, goldenHooks{
				step:   func() { ref.Step(); c.Step() },
				inject: func(dl []int64) error { return firstErr(ref.Inject(dl), c.Inject(dl)) },
				retarget: func(op *spectral.Operator) error {
					return firstErr(ref.Retarget(op), c.Retarget(op))
				},
				setBeta: func(b float64) error { return firstErr(ref.cont.SetBeta(b), c.SetBeta(b)) },
				setKind: func(k Kind) { ref.cont.SetKind(k); c.SetKind(k) },
				check: func(t *testing.T, round int) {
					eqInt64(t, round, "loads", c.LoadsInt(), ref.x)
					eqInt64(t, round, "sent", c.sent, ref.sent)
					eqBits(t, round, "cumFlows", c.cumFlows, ref.cumFlows)
					eqBits(t, round, "reference loads", c.Reference().LoadsFloat(), ref.cont.x)
					eqBits(t, round, "reference flows", c.Reference().Flows(), ref.cont.flows)
				},
			})
		})
	}
}

// firstErr returns the first non-nil error (events must land on both
// processes of a golden pair, or the comparison is meaningless).
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestStepSteadyStateAllocFree pins the tentpole's allocation contract: a
// steady-state Step of every engine allocates nothing, for Discrete with
// Ŷ recording both off and on. Sequential configs run the shards inline,
// so the assertion is exact (multi-worker Steps pay only the goroutine
// spawns of shard.Run, covered by its own tests).
func TestStepSteadyStateAllocFree(t *testing.T) {
	g, err := graph.Torus2D(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sp1, _ := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	x0f := make([]float64, n)
	for i, v := range x0 {
		x0f[i] = float64(v)
	}

	build := func(t *testing.T, name string) interface{ Step() } {
		t.Helper()
		op, err := spectral.NewOperator(g, sp1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Op: op, Kind: SOS, Beta: 1.5, Workers: 1}
		switch name {
		case "discrete", "discrete/record":
			d, err := NewDiscrete(cfg, RandomizedRounder{}, 3, x0)
			if err != nil {
				t.Fatal(err)
			}
			d.RecordScheduledFlows(name == "discrete/record")
			return d
		case "continuous":
			c, err := NewContinuous(cfg, x0f)
			if err != nil {
				t.Fatal(err)
			}
			return c
		default:
			c, err := NewCumulativeDiscrete(cfg, x0)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	for _, name := range []string{"discrete", "discrete/record", "continuous", "cumulative"} {
		t.Run(name, func(t *testing.T) {
			p := build(t, name)
			// Warm up past the FOS start round so the SOS recurrence is live.
			p.Step()
			p.Step()
			if allocs := testing.AllocsPerRun(20, p.Step); allocs != 0 {
				t.Errorf("steady-state Step allocates %.1f objects/round, want 0", allocs)
			}
		})
	}
}

// TestRetargetAllocFree pins the satellite's O(1) retarget contract: with
// the private α copy gone, installing a reweighted operator allocates
// nothing and copies nothing.
func TestRetargetAllocFree(t *testing.T) {
	g, err := graph.Torus2D(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	op1, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	op2, err := spectral.NewOperator(g, sp2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDiscrete(Config{Op: op1, Kind: SOS, Beta: 1.5, Workers: 1}, nil, 3, goldenInitial(n))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Retarget(op2); err != nil {
			t.Fatal(err)
		}
		if err := d.Retarget(op1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Retarget allocates %.1f objects/call pair, want 0", allocs)
	}
}

// BenchmarkRetarget reports the cost of a speed event on the engine side:
// installing a reweighted operator is pointer-swap cheap now that α is read
// through the operator's view each step.
func BenchmarkRetarget(b *testing.B) {
	g, err := graph.Torus2D(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	s1 := make([]float64, n)
	s2 := make([]float64, n)
	for i := 0; i < n; i++ {
		s1[i] = 1 + float64(i%5)*0.5
		s2[i] = 1 + float64(i%3)*0.25
	}
	sp1, err := hetero.New(s1)
	if err != nil {
		b.Fatal(err)
	}
	sp2, err := hetero.New(s2)
	if err != nil {
		b.Fatal(err)
	}
	op1, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		b.Fatal(err)
	}
	op2, err := spectral.NewOperator(g, sp2, nil)
	if err != nil {
		b.Fatal(err)
	}
	x0 := make([]int64, n)
	d, err := NewDiscrete(Config{Op: op1, Kind: SOS, Beta: 1.5, Workers: 1}, nil, 3, x0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op := op1
		if i&1 == 0 {
			op = op2
		}
		if err := d.Retarget(op); err != nil {
			b.Fatal(err)
		}
	}
}
