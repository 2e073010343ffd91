package core

import (
	"math"
	"testing"
	"testing/quick"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/spectral"
)

func testOperator(t *testing.T, g *graph.Graph, sp *hetero.Speeds) *spectral.Operator {
	t.Helper()
	op, err := spectral.NewOperator(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func torusOp(t *testing.T, w, h int) *spectral.Operator {
	t.Helper()
	g, err := graph.Torus2D(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return testOperator(t, g, nil)
}

func betaFor(t *testing.T, op *spectral.Operator) float64 {
	t.Helper()
	lam, _, err := op.SecondEigenvalue(spectral.PowerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	beta, err := spectral.BetaOpt(lam)
	if err != nil {
		t.Fatal(err)
	}
	return beta
}

// --- Continuous engine vs dense matrix recurrences ---

func TestContinuousFOSMatchesDense(t *testing.T) {
	op := torusOp(t, 4, 5)
	m := op.Dense()
	n := op.Graph().NumNodes()
	rng := randx.New(7)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.Float64() * 100
	}
	proc, err := NewContinuous(Config{Op: op, Kind: FOS}, x0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	copy(want, x0)
	scratch := make([]float64, n)
	for round := 0; round < 25; round++ {
		proc.Step()
		scratch, err = m.MulVec(want, scratch)
		if err != nil {
			t.Fatal(err)
		}
		want, scratch = scratch, want
		got := proc.LoadsFloat()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("round %d node %d: engine %g, dense %g", round, i, got[i], want[i])
			}
		}
	}
}

func TestContinuousSOSMatchesDense(t *testing.T) {
	// x(1) = M x(0); x(t+1) = βM x(t) + (1−β) x(t−1) — eq. (4).
	op := torusOp(t, 5, 4)
	beta := betaFor(t, op)
	m := op.Dense()
	n := op.Graph().NumNodes()
	rng := randx.New(8)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.Float64() * 50
	}
	proc, err := NewContinuous(Config{Op: op, Kind: SOS, Beta: beta}, x0)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]float64, n)
	cur := make([]float64, n)
	copy(prev, x0)
	mv, err := m.MulVec(prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	copy(cur, mv)
	proc.Step() // round 1 = FOS
	for i := range cur {
		if math.Abs(proc.LoadsFloat()[i]-cur[i]) > 1e-9 {
			t.Fatalf("first SOS round should be FOS: node %d %g vs %g", i, proc.LoadsFloat()[i], cur[i])
		}
	}
	for round := 2; round <= 30; round++ {
		proc.Step()
		mv, err = m.MulVec(cur, mv)
		if err != nil {
			t.Fatal(err)
		}
		next := make([]float64, n)
		for i := range next {
			next[i] = beta*mv[i] + (1-beta)*prev[i]
		}
		prev, cur = cur, next
		got := proc.LoadsFloat()
		for i := range cur {
			if math.Abs(got[i]-cur[i]) > 1e-8*(1+math.Abs(cur[i])) {
				t.Fatalf("round %d node %d: engine %.12g, recurrence %.12g", round, i, got[i], cur[i])
			}
		}
	}
}

func TestContinuousHeterogeneousFixedPoint(t *testing.T) {
	// Proportional loads are stationary under both FOS and SOS.
	g, err := graph.Cycle(10)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.New([]float64{1, 2, 3, 4, 5, 5, 4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, g, sp)
	x0 := sp.IdealLoad(3000)
	for _, kind := range []Kind{FOS, SOS} {
		cfg := Config{Op: op, Kind: kind, Beta: 1.5}
		proc, err := NewContinuous(cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		Run(proc, 10)
		for i, v := range proc.LoadsFloat() {
			if math.Abs(v-x0[i]) > 1e-9 {
				t.Fatalf("%v: proportional load drifted at node %d: %g vs %g", kind, i, v, x0[i])
			}
		}
	}
}

func TestContinuousConvergence(t *testing.T) {
	op := torusOp(t, 6, 6)
	beta := betaFor(t, op)
	n := op.Graph().NumNodes()
	x0 := make([]float64, n)
	x0[0] = float64(1000 * n)
	fos, err := NewContinuous(Config{Op: op, Kind: FOS}, x0)
	if err != nil {
		t.Fatal(err)
	}
	sos, err := NewContinuous(Config{Op: op, Kind: SOS, Beta: beta}, x0)
	if err != nil {
		t.Fatal(err)
	}
	fosRounds, ok := RunUntil(fos, 5000, ConvergedWithin(1))
	if !ok {
		t.Fatal("continuous FOS did not converge")
	}
	sosRounds, ok := RunUntil(sos, 5000, ConvergedWithin(1))
	if !ok {
		t.Fatal("continuous SOS did not converge")
	}
	if sosRounds >= fosRounds {
		t.Errorf("SOS (%d rounds) should converge faster than FOS (%d rounds) on the torus",
			sosRounds, fosRounds)
	}
}

// --- Linearity (Lemma 1) ---

func TestLinearityLemma1(t *testing.T) {
	// Superposition: the trajectory of a·x + b·x' equals a·traj(x) +
	// b·traj(x') for the whole process (loads and flows), for both FOS and
	// SOS. This is exactly the linearity the deviation framework needs.
	g, err := graph.RandomRegular(30, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.UniformRange(30, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, g, sp)
	const a, b = 2.5, -1.25
	rng := randx.New(33)
	n := g.NumNodes()
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	x3 := make([]float64, n)
	for i := range x1 {
		x1[i] = rng.Float64() * 10
		x2[i] = rng.Float64() * 10
		x3[i] = a*x1[i] + b*x2[i]
	}
	for _, kind := range []Kind{FOS, SOS} {
		cfg := Config{Op: op, Kind: kind, Beta: 1.7}
		p1, err := NewContinuous(cfg, x1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := NewContinuous(cfg, x2)
		if err != nil {
			t.Fatal(err)
		}
		p3, err := NewContinuous(cfg, x3)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			p1.Step()
			p2.Step()
			p3.Step()
			l1, l2, l3 := p1.LoadsFloat(), p2.LoadsFloat(), p3.LoadsFloat()
			for i := 0; i < n; i++ {
				want := a*l1[i] + b*l2[i]
				if math.Abs(l3[i]-want) > 1e-8*(1+math.Abs(want)) {
					t.Fatalf("%v round %d: superposition violated at node %d: %g vs %g",
						kind, round, i, l3[i], want)
				}
			}
			f1, f2, f3 := p1.Flows(), p2.Flows(), p3.Flows()
			for arc := range f3 {
				want := a*f1[arc] + b*f2[arc]
				if math.Abs(f3[arc]-want) > 1e-8*(1+math.Abs(want)) {
					t.Fatalf("%v round %d: flow superposition violated at arc %d", kind, round, arc)
				}
			}
		}
	}
}

// --- Discrete engine invariants ---

func TestDiscreteConservationAllRounders(t *testing.T) {
	g, err := graph.RandomRegular(48, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.TwoClass(48, 0.25, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, spc := range []*hetero.Speeds{nil, sp} {
		op := testOperator(t, g, spc)
		for _, rounderName := range []string{"randomized", "floor", "nearest", "bernoulli"} {
			rounder, ok := RounderByName(rounderName)
			if !ok {
				t.Fatalf("missing rounder %q", rounderName)
			}
			for _, kind := range []Kind{FOS, SOS} {
				x0, err := metrics.PointLoad(48, 48*500, 0)
				if err != nil {
					t.Fatal(err)
				}
				proc, err := NewDiscrete(Config{Op: op, Kind: kind, Beta: 1.6}, rounder, 42, x0)
				if err != nil {
					t.Fatal(err)
				}
				want := proc.TotalLoad()
				for round := 0; round < 40; round++ {
					proc.Step()
					if got := proc.TotalLoad(); got != want {
						t.Fatalf("%v/%s: total load %d != %d after round %d",
							kind, rounderName, got, want, round+1)
					}
				}
			}
		}
	}
}

func TestDiscreteFlowAntisymmetry(t *testing.T) {
	op := torusOp(t, 5, 5)
	x0, err := metrics.PointLoad(25, 25000, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, RandomizedRounder{}, 3, x0)
	if err != nil {
		t.Fatal(err)
	}
	proc.RecordScheduledFlows(true)
	mate := op.Graph().MateIndex()
	for round := 0; round < 30; round++ {
		proc.Step()
		flows := proc.Flows()
		for a := range flows {
			if flows[a] != -flows[mate[a]] {
				t.Fatalf("round %d: flow[%d]=%d but mate=%d", round, a, flows[a], flows[mate[a]])
			}
		}
		sched := proc.ScheduledFlows()
		for a := range sched {
			if sched[a] != -sched[mate[a]] {
				t.Fatalf("round %d: scheduled flow not antisymmetric at arc %d", round, a)
			}
		}
	}
}

func TestDiscreteDeterministicAcrossWorkers(t *testing.T) {
	g, err := graph.Torus2D(30, 30) // 900 nodes: enough to engage chunking
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, g, nil)
	x0, err := metrics.PointLoad(900, 900*100, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []int64 {
		proc, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.9, Workers: workers},
			RandomizedRounder{}, 1234, x0)
		if err != nil {
			t.Fatal(err)
		}
		Run(proc, 60)
		out := make([]int64, len(proc.LoadsInt()))
		copy(out, proc.LoadsInt())
		return out
	}
	base := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: load[%d]=%d differs from sequential %d", w, i, got[i], base[i])
			}
		}
	}
}

func TestDiscreteConvergesOnTorus(t *testing.T) {
	op := torusOp(t, 8, 8)
	beta := betaFor(t, op)
	n := 64
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{FOS, SOS} {
		proc, err := NewDiscrete(Config{Op: op, Kind: kind, Beta: beta}, RandomizedRounder{}, 5, x0)
		if err != nil {
			t.Fatal(err)
		}
		rounds, ok := RunUntil(proc, 4000, ConvergedWithin(12))
		if !ok {
			disc := metrics.Discrepancy(proc.LoadsInt())
			t.Fatalf("%v did not reach discrepancy <= 12 in 4000 rounds (at %g)", kind, disc)
		}
		t.Logf("%v converged to discrepancy <= 12 in %d rounds", kind, rounds)
	}
}

func TestDiscreteHeterogeneousProportional(t *testing.T) {
	g, err := graph.RandomRegular(40, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := hetero.TwoClass(40, 0.5, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	op := testOperator(t, g, sp)
	x0, err := metrics.PointLoad(40, 40*2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: FOS}, RandomizedRounder{}, 6, x0)
	if err != nil {
		t.Fatal(err)
	}
	rounds, ok := RunUntil(proc, 4000, ProportionallyConvergedWithin(8))
	if !ok {
		t.Fatalf("heterogeneous FOS did not reach normalized discrepancy <= 8; at %g",
			metrics.HeteroNormalizedDiscrepancy(proc.LoadsInt(), sp))
	}
	t.Logf("normalized discrepancy <= 8 after %d rounds", rounds)
	// Fast nodes must end with more load than slow nodes on average.
	var fastSum, fastN, slowSum, slowN float64
	for i, v := range proc.LoadsInt() {
		if sp.Of(i) > 1 {
			fastSum += float64(v)
			fastN++
		} else {
			slowSum += float64(v)
			slowN++
		}
	}
	if fastN == 0 || slowN == 0 {
		t.Skip("degenerate two-class sample")
	}
	if fastSum/fastN <= slowSum/slowN {
		t.Errorf("fast nodes average %g <= slow nodes average %g", fastSum/fastN, slowSum/slowN)
	}
}

func TestDiscreteTracksNegativeTransient(t *testing.T) {
	// SOS from a huge point load on a slow-mixing graph must overshoot:
	// some node's transient load dips negative, and the tracker sees it.
	op := torusOp(t, 10, 10)
	beta := betaFor(t, op)
	x0, err := metrics.PointLoad(100, 100*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: beta}, RandomizedRounder{}, 9, x0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(proc.MinTransient(), 1) {
		t.Error("MinTransient before any round should be +Inf")
	}
	Run(proc, 300)
	minT, okT := proc.MinTransientInt()
	if !okT {
		t.Fatal("MinTransientInt should be set after rounds")
	}
	if minT >= 0 || proc.NegativeTransientRounds() == 0 {
		t.Skipf("no negative transient on this configuration (min=%d); acceptable but unusual", minT)
	}
	if float64(minT) != proc.MinTransient() {
		t.Error("MinTransient and MinTransientInt disagree")
	}
}

// --- Rounding schemes ---

func TestRandomizedRounderExpectation(t *testing.T) {
	// Observation 1: E[Z_ij] = {Ŷ_ij}. Monte-Carlo check.
	yhat := []float64{1.3, 0.25, 2.45, 0.9}
	const trials = 200000
	sums := make([]float64, len(yhat))
	out := make([]int64, len(yhat))
	r := RandomizedRounder{}
	for trial := 0; trial < trials; trial++ {
		rng := randx.NewStream(2024, uint64(trial))
		for i := range out {
			out[i] = 0
		}
		r.RoundNode(yhat, out, rng)
		for i, v := range out {
			sums[i] += float64(v)
		}
	}
	for i, want := range yhat {
		got := sums[i] / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("E[rounded flow %d] = %.4f, want %.4f", i, got, want)
		}
	}
}

func TestRandomizedRounderBounds(t *testing.T) {
	// Per node, total extra tokens beyond floors never exceed ⌈Σ fractional⌉.
	f := func(seed uint64, raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		yhat := make([]float64, len(raw))
		var fracSum float64
		for i, v := range raw {
			yhat[i] = float64(v%500)/100.0 + 0.001 // (0, 5]
			fracSum += yhat[i] - math.Floor(yhat[i])
		}
		out := make([]int64, len(yhat))
		RandomizedRounder{}.RoundNode(yhat, out, randx.New(seed))
		var extra int64
		for i, v := range out {
			fl := int64(math.Floor(yhat[i]))
			if v < fl {
				return false // never round below floor
			}
			extra += v - fl
		}
		return extra <= int64(math.Ceil(fracSum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicRounders(t *testing.T) {
	yhat := []float64{0.2, 1.5, 2.7, 3.0}
	out := make([]int64, 4)
	FloorRounder{}.RoundNode(yhat, out, nil)
	for i, want := range []int64{0, 1, 2, 3} {
		if out[i] != want {
			t.Errorf("floor[%d] = %d, want %d", i, out[i], want)
		}
	}
	NearestRounder{}.RoundNode(yhat, out, nil)
	for i, want := range []int64{0, 2, 3, 3} {
		if out[i] != want {
			t.Errorf("nearest[%d] = %d, want %d", i, out[i], want)
		}
	}
	if !(FloorRounder{}).Deterministic() || !(NearestRounder{}).Deterministic() {
		t.Error("floor/nearest must report deterministic")
	}
	if (RandomizedRounder{}).Deterministic() || (BernoulliRounder{}).Deterministic() {
		t.Error("randomized/bernoulli must report non-deterministic")
	}
}

func TestBernoulliRounderExpectation(t *testing.T) {
	yhat := []float64{0.5}
	var sum int64
	out := make([]int64, 1)
	for trial := 0; trial < 100000; trial++ {
		out[0] = 0
		BernoulliRounder{}.RoundNode(yhat, out, randx.NewStream(1, uint64(trial)))
		sum += out[0]
	}
	mean := float64(sum) / 100000
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Bernoulli mean = %g, want 0.5", mean)
	}
}

func TestRounderByName(t *testing.T) {
	for _, name := range []string{"randomized", "floor", "nearest", "bernoulli"} {
		r, ok := RounderByName(name)
		if !ok || r.Name() != name {
			t.Errorf("RounderByName(%q) = %v, %v", name, r, ok)
		}
	}
	if _, ok := RounderByName("bogus"); ok {
		t.Error("unknown rounder name must return false")
	}
}

// --- Hybrid switching ---

func TestRunHybridSwitchesAtRound(t *testing.T) {
	op := torusOp(t, 6, 6)
	x0, err := metrics.PointLoad(36, 36000, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, RandomizedRounder{}, 2, x0)
	if err != nil {
		t.Fatal(err)
	}
	sw := RunHybrid(proc, SwitchAtRound{Round: 25}, 60)
	if sw != 25 {
		t.Errorf("switch at round %d, want 25", sw)
	}
	if proc.Kind() != FOS {
		t.Errorf("after hybrid run kind = %v, want FOS", proc.Kind())
	}
	if proc.Round() != 60 {
		t.Errorf("rounds executed = %d, want 60", proc.Round())
	}
}

func TestHybridImprovesImbalance(t *testing.T) {
	// The paper's headline empirical claim: switching SOS→FOS after the SOS
	// plateau lowers the remaining imbalance versus pure SOS.
	op := torusOp(t, 16, 16)
	beta := betaFor(t, op)
	n := 256
	x0, err := metrics.PointLoad(n, int64(n)*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	const total = 1200
	pure, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: beta}, RandomizedRounder{}, 11, x0)
	if err != nil {
		t.Fatal(err)
	}
	Run(pure, total)
	hybrid, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: beta}, RandomizedRounder{}, 11, x0)
	if err != nil {
		t.Fatal(err)
	}
	RunHybrid(hybrid, SwitchAtRound{Round: total / 2}, total)
	pureGlobal := metrics.MaxMinusAvg(pure.LoadsInt())
	hybridGlobal := metrics.MaxMinusAvg(hybrid.LoadsInt())
	if hybridGlobal > pureGlobal {
		t.Errorf("hybrid max-avg %g should not exceed pure SOS %g", hybridGlobal, pureGlobal)
	}
	t.Logf("pure SOS max-avg=%g, hybrid max-avg=%g", pureGlobal, hybridGlobal)
}

func TestSwitchPolicies(t *testing.T) {
	op := torusOp(t, 6, 6)
	x0, err := metrics.PointLoad(36, 36*100, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewDiscrete(Config{Op: op, Kind: SOS, Beta: 1.8}, RandomizedRounder{}, 4, x0)
	if err != nil {
		t.Fatal(err)
	}
	local := SwitchOnLocalDiff{Threshold: 1e9} // fires immediately
	if !local.Decide(proc) {
		t.Error("huge threshold should fire")
	}
	tight := SwitchOnLocalDiff{Threshold: 0}
	if tight.Decide(proc) {
		t.Error("threshold 0 should not fire on an unbalanced start")
	}
	stall := &SwitchOnPotentialStall{Window: 5, Factor: 0.01}
	fired := false
	for round := 0; round < 200 && !fired; round++ {
		proc.Step()
		fired = stall.Decide(proc)
	}
	if !fired {
		t.Error("potential-stall policy never fired in 200 rounds on a tiny torus")
	}
	if (NeverSwitch{}).Decide(proc) {
		t.Error("NeverSwitch must never fire")
	}
	for _, p := range []SwitchPolicy{local, tight, stall, NeverSwitch{}, SwitchAtRound{Round: 5}} {
		if p.Name() == "" {
			t.Error("policy must have a name")
		}
	}
}

// --- SetKind semantics ---

func TestSetKindRestartsSOSMemory(t *testing.T) {
	// SOS → FOS → SOS: after switching back, the first SOS round must be an
	// FOS round again (flow memory reset), matching the dense recurrence.
	op := torusOp(t, 4, 4)
	n := 16
	rng := randx.New(55)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.Float64() * 40
	}
	proc, err := NewContinuous(Config{Op: op, Kind: SOS, Beta: 1.7}, x0)
	if err != nil {
		t.Fatal(err)
	}
	m := op.Dense()
	Run(proc, 5)
	proc.SetKind(FOS)
	before := append([]float64(nil), proc.LoadsFloat()...)
	proc.Step()
	want, err := m.MulVec(before, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(proc.LoadsFloat()[i]-want[i]) > 1e-9 {
			t.Fatalf("FOS round after switch mismatches M·x at node %d", i)
		}
	}
	proc.SetKind(SOS)
	before = append(before[:0], proc.LoadsFloat()...)
	proc.Step() // must be FOS semantics again (fresh SOS memory)
	want, err = m.MulVec(before, want)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(proc.LoadsFloat()[i]-want[i]) > 1e-9 {
			t.Fatalf("first SOS round after re-switch should be FOS at node %d", i)
		}
	}
}

// --- Cumulative baseline [2] ---

func TestCumulativeConservesAndTracks(t *testing.T) {
	op := torusOp(t, 8, 8)
	beta := betaFor(t, op)
	x0, err := metrics.PointLoad(64, 64*1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := NewCumulativeDiscrete(Config{Op: op, Kind: SOS, Beta: beta}, x0)
	if err != nil {
		t.Fatal(err)
	}
	want := proc.TotalLoad()
	for round := 0; round < 200; round++ {
		proc.Step()
		if got := proc.TotalLoad(); got != want {
			t.Fatalf("cumulative scheme lost load: %d != %d", got, want)
		}
	}
	// O(d)-style deviation: discrete stays within a small constant × d of
	// the internally simulated continuous trajectory at every node.
	dev, err := metrics.DeviationInf(proc.LoadsInt(), proc.Reference().LoadsFloat())
	if err != nil {
		t.Fatal(err)
	}
	d := float64(op.Graph().MaxDegree())
	if dev > 4*d {
		t.Errorf("cumulative deviation %g exceeds 4d = %g", dev, 4*d)
	}
	t.Logf("cumulative deviation after 200 rounds: %g (d=%g)", dev, d)
}

// --- Property: conservation under random configurations ---

func TestPropertyConservation(t *testing.T) {
	f := func(seed uint64, kindRaw, rounderRaw uint8, loadRaw uint16) bool {
		g, err := graph.RandomRegular(20, 3, seed)
		if err != nil {
			return false
		}
		op, err := spectral.NewOperator(g, nil, nil)
		if err != nil {
			return false
		}
		kind := FOS
		if kindRaw%2 == 1 {
			kind = SOS
		}
		names := []string{"randomized", "floor", "nearest", "bernoulli"}
		rounder, _ := RounderByName(names[int(rounderRaw)%len(names)])
		x0, err := metrics.UniformRandomLoad(20, int64(loadRaw), seed^0xabcd)
		if err != nil {
			return false
		}
		proc, err := NewDiscrete(Config{Op: op, Kind: kind, Beta: 1.5}, rounder, seed, x0)
		if err != nil {
			return false
		}
		want := proc.TotalLoad()
		Run(proc, 15)
		return proc.TotalLoad() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- Config validation ---

func TestConfigValidation(t *testing.T) {
	op := torusOp(t, 3, 3)
	x9 := make([]int64, 9)
	xf9 := make([]float64, 9)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil-op", Config{Kind: FOS}},
		{"bad-kind", Config{Op: op}},
		{"sos-no-beta", Config{Op: op, Kind: SOS}},
		{"sos-beta-2", Config{Op: op, Kind: SOS, Beta: 2}},
		{"neg-workers", Config{Op: op, Kind: FOS, Workers: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDiscrete(tc.cfg, nil, 1, x9); err == nil {
				t.Error("NewDiscrete accepted invalid config")
			}
			if _, err := NewContinuous(tc.cfg, xf9); err == nil {
				t.Error("NewContinuous accepted invalid config")
			}
			if _, err := NewCumulativeDiscrete(tc.cfg, x9); err == nil {
				t.Error("NewCumulativeDiscrete accepted invalid config")
			}
		})
	}
	// Length mismatches.
	if _, err := NewDiscrete(Config{Op: op, Kind: FOS}, nil, 1, make([]int64, 5)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewContinuous(Config{Op: op, Kind: FOS}, make([]float64, 5)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestKindString(t *testing.T) {
	if FOS.String() != "FOS" || SOS.String() != "SOS" {
		t.Error("Kind.String mismatch")
	}
	if Kind(0).String() == "" {
		t.Error("unknown kind should still format")
	}
}
