package spectral

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/numeric"
	"diffusionlb/internal/randx"
)

// goldenOp builds the operator of a graph spec (seed 1) with the given
// speed spec ("" is homogeneous; speeds use seed 2) and the default α rule.
func goldenOp(t testing.TB, gs, ss string) *Operator {
	t.Helper()
	g, err := graph.FromSpec(gs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := hetero.Homogeneous(g.NumNodes())
	if ss != "" {
		if sp, err = hetero.SpeedsFromSpec(ss, g.NumNodes(), 2); err != nil {
			t.Fatal(err)
		}
	}
	op, err := NewOperator(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// goldenPower pins the exact bits of the power iteration's result. The
// systems cover a uniform α (torus, hypercube, random regular), a per-arc
// α on irregular graphs whose node counts are not multiples of 4 (rgg:1001,
// grid:5x7), homogeneous and two-class speeds, the default and the sweep's
// tolerance, and runs cut short by the iteration budget.
var goldenPower = []struct {
	graph, speeds string
	opts          PowerOptions
	lambda        uint64
	signed        uint64
	err           string
	long          bool // skipped in -short mode
}{
	{"torus2d:32x32", "", PowerOptions{}, 0x3fefc10986518bff, 0x3fefc10986517ab3, "", false},
	{"torus2d:32x32", "", PowerOptions{Tol: 1e-10}, 0x3fefc1097f9aaec9, 0x3fefc1097f93eec0, "", false},
	{"torus2d:32x32", "twoclass:0.25:4", PowerOptions{}, 0x3fefde7c58ba39db, 0x3fefde7c58ba2859, "", true},
	{"torus2d:32x32", "twoclass:0.25:4", PowerOptions{Tol: 1e-10}, 0x3fefde7ba46160c6, 0x3fefde7ba45a8666, "", true},
	{"torus2d:32x32", "twoclass:0.25:4", PowerOptions{MaxIter: 50}, 0x3fef90387871905e, 0x3fef8fa5d5867777,
		"spectral: power iteration did not converge after 50 iterations (last |λ|≈0.986355052)", false},
	{"hypercube:10", "", PowerOptions{}, 0x3fea2e8ba2e878d5, 0x3fdfc5fc87f4577d, "", false},
	{"hypercube:10", "", PowerOptions{Tol: 1e-10}, 0x3fea2e8ba2d1334a, 0x3fdfc5fc87da9b5d, "", false},
	{"hypercube:10", "twoclass:0.25:4", PowerOptions{}, 0x3fed664268f0a4c5, 0x3fed664268f093e7, "", true},
	{"hypercube:10", "twoclass:0.25:4", PowerOptions{Tol: 1e-10}, 0x3fed6642179682b5, 0x3fed6642178feccc, "", true},
	{"regular:4096:8", "", PowerOptions{}, 0x3fe65069b4a4696e, 0x3fe65069b4a45aad, "", true},
	{"regular:4096:8", "", PowerOptions{Tol: 1e-10}, 0x3fe65069a071e83c, 0x3fe65069a06c17c1, "", true},
	{"regular:4096:8", "twoclass:0.25:4", PowerOptions{}, 0x3fec5ab281d3456c, 0x3fec5ab281d334e7, "", true},
	{"regular:4096:8", "twoclass:0.25:4", PowerOptions{Tol: 1e-10}, 0x3fec5ab2246c66fc, 0x3fec5ab22465eeba, "", true},
	{"regular:4096:8", "twoclass:0.25:4", PowerOptions{MaxIter: 50}, 0x3febfd2afcc089a9, 0x3febfc9da743ec8e,
		"spectral: power iteration did not converge after 50 iterations (last |λ|≈0.874654287)", false},
	{"rgg:1001", "", PowerOptions{}, 0x3feff6bba8c45df4, 0x3feff6bba8c44c5f, "", true},
	{"rgg:1001", "", PowerOptions{Tol: 1e-10}, 0x3feff6bb7d2787be, 0x3feff6bb7d20ac87, "", true},
	{"rgg:1001", "twoclass:0.25:4", PowerOptions{}, 0x3feffafdbe39077f, 0x3feffafdbe38f5e3, "", true},
	{"rgg:1001", "twoclass:0.25:4", PowerOptions{Tol: 1e-10}, 0x3feffafd6e59e86a, 0x3feffafd6e530b73, "", true},
	{"rgg:1001", "twoclass:0.25:4", PowerOptions{MaxIter: 50}, 0x3fefa79b336f0923, 0x3fefa73a4dbf8596,
		"spectral: power iteration did not converge after 50 iterations (last |λ|≈0.989209748)", false},
	{"grid:5x7", "", PowerOptions{}, 0x3fee9b9c3d367ff2, 0x3fee9b9c3d367066, "", false},
	{"grid:5x7", "", PowerOptions{Tol: 1e-10}, 0x3fee9b9c3c07bf19, 0x3fee9b9c3c018b24, "", false},
	{"grid:5x7", "twoclass:0.25:4", PowerOptions{}, 0x3fef3306ac04b721, 0x3fef3306ac04a65b, "", false},
	{"grid:5x7", "twoclass:0.25:4", PowerOptions{Tol: 1e-10}, 0x3fef3306a97560a0, 0x3fef3306a96edf81, "", false},
}

// skipWhereFMA skips a test of the power iteration's result bits on
// architectures whose Go compiler fuses a multiply and an add into one FMA
// (arm64, ppc64, s390x, riscv64, loong64): a fused product is rounded once
// with its sum, so the bits depend on where the compiler fused. The amd64
// compiler emits no FMA for these loops at any GOAMD64 level, as checked
// with go tool objdump (Go 1.24); the bits are pinned there.
func skipWhereFMA(tb testing.TB) {
	tb.Helper()
	if runtime.GOARCH != "amd64" {
		tb.Skip("result bits are pinned on amd64; " + runtime.GOARCH + " may fuse multiply-adds")
	}
}

// TestSecondEigenvalueGoldenBits pins math.Float64bits of (λ, signed) and
// the error of the uncached power iteration. λ sets β_opt, and with it every
// SOS trajectory, sweep row and golden digest downstream, so a change to
// the iteration may make it faster but must not move a single bit: each
// row and dot product sums in ascending node and arc order. The values hold
// on amd64 only (see skipWhereFMA).
func TestSecondEigenvalueGoldenBits(t *testing.T) {
	skipWhereFMA(t)
	for _, tc := range goldenPower {
		name := fmt.Sprintf("%s/%s/maxiter=%d/tol=%g", tc.graph, tc.speeds, tc.opts.MaxIter, tc.opts.Tol)
		t.Run(name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("slow-converging system in -short mode")
			}
			op := goldenOp(t, tc.graph, tc.speeds)
			lam, signed, err := op.secondEigenvalue(tc.opts.withDefaults())
			if tc.err == "" && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.err != "" && (err == nil || err.Error() != tc.err || !errors.Is(err, ErrNoConvergence)) {
				t.Fatalf("error = %v, want %q", err, tc.err)
			}
			if got := math.Float64bits(lam); got != tc.lambda {
				t.Errorf("lambda bits = %#x (%.17g), want %#x (%.17g)", got, lam, tc.lambda, math.Float64frombits(tc.lambda))
			}
			if got := math.Float64bits(signed); got != tc.signed {
				t.Errorf("signed bits = %#x (%.17g), want %#x (%.17g)", got, signed, tc.signed, math.Float64frombits(tc.signed))
			}
		})
	}
}

// TestPowerIterationAllocsFlat checks that the iteration allocates only
// its set-up: the allocations of an uncached run must not grow with the
// number of steps. The two runs differ only in tolerance: 1e-3 stops after
// about ten steps, the default 1e-12 takes thousands (more than 3000 on
// both systems, which the ErrNoConvergence check pins). Both converge, so
// neither formats an error: fmt draws its printers from a sync.Pool, which
// the race detector empties at random, and an error path would make the
// counts vary under -race. The systems are a uniform-α cycle and a
// per-arc-α grid, both with two-class speeds.
func TestPowerIterationAllocsFlat(t *testing.T) {
	for _, gs := range []string{"cycle:64", "grid:8x8"} {
		op := goldenOp(t, gs, "twoclass:0.25:4")
		if _, _, err := op.secondEigenvalue(PowerOptions{MaxIter: 3000}.withDefaults()); !errors.Is(err, ErrNoConvergence) {
			t.Fatalf("%s converges within 3000 steps (err = %v); the long run is not long", gs, err)
		}
		allocs := func(tol float64) float64 {
			opts := PowerOptions{Tol: tol}.withDefaults()
			return testing.AllocsPerRun(5, func() {
				if _, _, err := op.secondEigenvalue(opts); err != nil {
					t.Fatalf("%s tol %g: %v", gs, tol, err)
				}
			})
		}
		if short, long := allocs(1e-3), allocs(0); long != short {
			t.Errorf("%s: allocs per run: %v in about ten steps, %v in over 3000; the steps allocate", gs, short, long)
		}
	}
}

// FuzzSecondEigenvalue checks the power iteration against the frozen copy
// of its earlier form, bit for bit, on small generated systems: n in
// [2, 64] (so every remainder of the four-row blocks occurs), irregular
// degrees from the edge bytes, homogeneous or random speeds, and a uniform
// (ConstantAlpha) or per-arc (MaxDegreeAlpha) α. Where the compiler fuses
// multiply-adds, the frozen copy's x_j·s_j^{−1/2} may be fused into its
// subtraction while the fused loop reads that product already rounded, so
// the target runs on amd64 only (see skipWhereFMA).
func FuzzSecondEigenvalue(f *testing.F) {
	skipWhereFMA(f)
	f.Add(uint8(0), uint8(0), uint16(50), uint64(1), []byte{0, 1})
	f.Add(uint8(1), uint8(1), uint16(500), uint64(7), []byte{0, 1, 1, 2, 2, 0})
	f.Add(uint8(3), uint8(2), uint16(2000), uint64(3), []byte{0, 1, 1, 2, 4, 0, 3, 1, 2, 4})
	f.Add(uint8(62), uint8(3), uint16(3000), uint64(9), []byte{63, 0, 0, 63, 7, 9, 9, 7, 12, 40, 5, 6, 6, 7, 1, 2})
	f.Add(uint8(9), uint8(7), uint16(4000), uint64(2), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 0, 0, 5})
	f.Fuzz(func(t *testing.T, nRaw, mode uint8, maxIter uint16, seed uint64, data []byte) {
		n := 2 + int(nRaw)%63
		b := graph.NewBuilder(n)
		for k := 0; k+1 < len(data); k += 2 {
			if u, v := int(data[k])%n, int(data[k+1])%n; u != v {
				if err := b.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := b.Build("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		sp := hetero.Homogeneous(n)
		if mode&1 != 0 {
			s := make([]float64, n)
			for i := range s {
				s[i] = 1 + float64((seed>>(i%60))&7)/2
				if i < len(data) {
					s[i] += float64(data[i]%5) / 4
				}
			}
			if sp, err = hetero.New(s); err != nil {
				t.Fatal(err)
			}
		}
		var rule AlphaRule = MaxDegreeAlpha{}
		if mode&2 != 0 {
			rule = ConstantAlpha{Value: 1 / float64(g.MaxDegree()+1)}
		}
		op, err := NewOperator(g, sp, rule)
		if err != nil {
			t.Fatal(err)
		}
		opts := PowerOptions{MaxIter: 1 + int(maxIter)%5000, Seed: seed}
		if mode&4 != 0 {
			opts.Tol = 1e-10
		}
		opts = opts.withDefaults()
		lam, signed, err := op.secondEigenvalue(opts)
		wantLam, wantSigned, wantErr := frozenSecondEigenvalue(op, opts)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("err = %v, frozen = %v", err, wantErr)
		}
		if math.Float64bits(lam) != math.Float64bits(wantLam) || math.Float64bits(signed) != math.Float64bits(wantSigned) {
			t.Fatalf("(λ, signed) = (%.17g, %.17g), frozen (%.17g, %.17g)", lam, signed, wantLam, wantSigned)
		}
	})
}

// frozenSecondEigenvalue is the power iteration as it stood before the
// fused kernel, kept verbatim as the oracle of FuzzSecondEigenvalue: a
// row-by-row product with the symmetrized operator, then a separate pass
// each for the deflation dot, the deflation, the Rayleigh quotient, ‖y‖
// and the normalization.
func frozenSecondEigenvalue(op *Operator, opts PowerOptions) (lambda, signed float64, err error) {
	n := op.g.NumNodes()
	if n < 2 {
		return 0, 0, errors.New("spectral: need at least 2 nodes")
	}
	invSqrtS := make([]float64, n)
	principal := make([]float64, n) // B's principal eigenvector ∝ √s_i
	for i := 0; i < n; i++ {
		s := op.speeds.Of(i)
		invSqrtS[i] = 1 / math.Sqrt(s)
		principal[i] = math.Sqrt(s)
	}
	numeric.Normalize(principal)

	rng := randx.New(opts.Seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	deflate := func(v []float64) {
		c := numeric.Dot(v, principal)
		numeric.AXPY(-c, principal, v)
	}
	deflate(x)
	if numeric.Normalize(x) == 0 {
		// Pathological start; use a deterministic alternative.
		x[0], x[n-1] = 1, -1
		deflate(x)
		numeric.Normalize(x)
	}

	y := make([]float64, n)
	prev := math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		frozenMulVecSym(op, x, y, invSqrtS)
		deflate(y)
		signed = numeric.Dot(x, y) // Rayleigh quotient since ‖x‖=1
		norm := numeric.Normalize(y)
		x, y = y, x
		if norm == 0 {
			return 0, 0, nil // M restricted to the complement is nilpotent-zero
		}
		if math.Abs(norm-prev) <= opts.Tol*(1+norm) && iter > 8 {
			return norm, signed, nil
		}
		prev = norm
	}
	return prev, signed, fmt.Errorf("%w after %d iterations (last |λ|≈%.9g)", ErrNoConvergence, opts.MaxIter, prev)
}

// frozenMulVecSym computes dst = B·x for the symmetrized operator
// B = S^{−1/2} M S^{1/2} = I − S^{−1/2} L S^{−1/2}:
// dst_i = x_i − (1/√s_i) Σ_j α_ij (x_i/√s_i − x_j/√s_j).
func frozenMulVecSym(op *Operator, x, dst, invSqrtS []float64) {
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	alpha := op.alpha
	for i := range dst {
		xi := x[i] * invSqrtS[i]
		var acc float64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := arcs[a]
			acc += alpha.At(int(a)) * (xi - x[j]*invSqrtS[j])
		}
		dst[i] = x[i] - acc*invSqrtS[i]
	}
}
