package spectral

import (
	"math"
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
)

// perArcTwin returns a copy of op with its α materialized per arc — the
// representation every operator used before uniform α became a scalar.
func perArcTwin(op *Operator) *Operator {
	tw := op.Clone()
	tw.alpha = ArcAlphas{perArc: op.Alphas()}
	return tw
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %g, per-arc twin %g", what, i, got[i], want[i])
		}
	}
}

// requireSameOperator compares every read path of a against b bit for bit.
func requireSameOperator(t *testing.T, a, b *Operator) {
	t.Helper()
	n, m := a.Graph().NumNodes(), a.Graph().NumArcs()
	sameBits(t, "Alphas", a.Alphas(), b.Alphas())
	into := make([]float64, m)
	if err := a.AlphasInto(into); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "AlphasInto", into, b.Alphas())
	for arc := 0; arc < m; arc++ {
		if a.AlphaArc(arc) != b.AlphaArc(arc) {
			t.Fatalf("AlphaArc(%d) = %g, per-arc twin %g", arc, a.AlphaArc(arc), b.AlphaArc(arc))
		}
	}
	sameBits(t, "Dense", a.Dense().Data, b.Dense().Data)
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*i)%31) - 7.5
	}
	sameBits(t, "MulVec", a.MulVec(x, nil), b.MulVec(x, nil))
	sameBits(t, "MulVecT", a.MulVecT(x, nil), b.MulVecT(x, nil))
	cs, csTwin := make([]float64, n), make([]float64, n)
	if err := a.ColumnSums(cs); err != nil {
		t.Fatal(err)
	}
	if err := b.ColumnSums(csTwin); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "ColumnSums", cs, csTwin)
	opts := PowerOptions{MaxIter: 300, Tol: 1e-300}
	l1, s1, _ := a.SecondEigenvalue(opts)
	l2, s2, _ := b.SecondEigenvalue(opts)
	sameBits(t, "SecondEigenvalue", []float64{l1, s1}, []float64{l2, s2})
}

// TestUniformAlphaMatchesPerArc pins the scalar-α representation: on a
// regular graph the operator stores one α and no per-arc array, and every
// read path — Alphas, AlphasInto, AlphaArc, Dense, the products, the
// column sums and the power iteration — returns exactly what the per-arc
// form returns, before and after Clone+Reweight.
func TestUniformAlphaMatchesPerArc(t *testing.T) {
	g, err := graph.Torus2D(9, 7)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := op.AlphaView().Uniform(); !ok || v != 0.2 {
		t.Fatalf("torus α uniform = (%g, %v), want (0.2, true)", v, ok)
	}
	twin := perArcTwin(op)
	if got, want := twin.MemoryFootprint()-op.MemoryFootprint(), int64(8*g.NumArcs()); got != want {
		t.Errorf("per-arc twin holds %d more bytes, want %d (one float64 per arc)", got, want)
	}
	requireSameOperator(t, op, twin)

	// A clone stays uniform and independent; reweighting it moves it and
	// its per-arc twin identically while the original keeps its speeds.
	cl := op.Clone()
	if _, ok := cl.AlphaView().Uniform(); !ok {
		t.Fatal("Clone of a uniform operator materialized per-arc α")
	}
	sp, err := hetero.TwoClass(g.NumNodes(), 0.25, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Reweight(sp); err != nil {
		t.Fatal(err)
	}
	if err := twin.Reweight(sp); err != nil {
		t.Fatal(err)
	}
	requireSameOperator(t, cl, twin)
	if !op.Speeds().IsHomogeneous() {
		t.Error("reweighting a clone changed the original's speeds")
	}
}

// TestAlphaFormFollowsTheRule pins when the scalar form applies: a rule
// that gives every arc the same α is stored as one value (also on an
// irregular graph), a rule that varies keeps the per-arc array, and either
// way AlphaArc reproduces the rule at every arc.
func TestAlphaFormFollowsTheRule(t *testing.T) {
	g, err := graph.Grid2D(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rule    AlphaRule
		uniform bool
	}{
		{MaxDegreeAlpha{}, false},
		{ConstantAlpha{Value: 0.125}, true},
		{GammaDegreeAlpha{Gamma: 2}, true},
	}
	offsets, arcs := g.Offsets(), g.Arcs()
	for _, tc := range cases {
		op, err := NewOperator(g, nil, tc.rule)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := op.AlphaView().Uniform(); ok != tc.uniform {
			t.Errorf("%s: uniform = %v, want %v", tc.rule, ok, tc.uniform)
		}
		for i := 0; i < g.NumNodes(); i++ {
			for a := offsets[i]; a < offsets[i+1]; a++ {
				if got, want := op.AlphaArc(int(a)), tc.rule.Alpha(g, i, int(arcs[a])); got != want {
					t.Fatalf("%s: AlphaArc(%d) = %g, rule gives %g", tc.rule, a, got, want)
				}
			}
		}
	}
}
