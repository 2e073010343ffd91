// Package divergence makes the paper's analysis machinery executable: the
// propagation matrices Q(t) of eq. (20), the edge contributions
// C_{k,i→j}(t) of Definitions 3/5 and Lemma 6, the refined local divergence
// Υ_C(G) that parameterizes the deviation bounds of Theorems 3/4/9, the
// exact telescoping deviation identity of Lemma 2, and the negative-load
// bounds of Section V.
//
// Everything here works on dense matrices and is meant for small graphs
// (n up to a few hundred): it is analysis and test machinery, not the
// simulation hot path.
//
// Index convention. Contributions are defined as in Definition 5/Lemma 6:
// C_{k,i→j}(0) = 0 and, for t >= 1,
//
//	C_{k,i→j}(t) = Q_{k,i}(t−1) − Q_{k,j}(t−1),
//
// where Q(t) = M^t for FOS and Q(0)=I, Q(1)=βM, Q(t)=βM·Q(t−1)+(1−β)Q(t−2)
// for SOS. With this convention Lemma 2 reads exactly
//
//	x_D_k(t) − x_C_k(t) = Σ_{s=1}^{t} Σ_{{i,j}∈E} e_ij(t−s) · C_{k,i→j}(s),
//
// with rounding errors e_ij(r) = Ŷ_ij(r) − y_D_ij(r), which
// VerifyLemma2 checks to floating-point accuracy against real runs.
package divergence

import (
	"errors"
	"fmt"
	"math"

	"diffusionlb/internal/core"
	"diffusionlb/internal/numeric"
	"diffusionlb/internal/spectral"
)

// ErrTooLarge guards the dense analysis against accidentally huge graphs.
var ErrTooLarge = errors.New("divergence: graph too large for dense analysis")

// maxDenseNodes bounds n for the dense Q(t) machinery.
const maxDenseNodes = 2048

// QSequence computes and caches the propagation matrices Q(t) of a scheme.
type QSequence struct {
	op   *spectral.Operator
	kind core.Kind
	beta float64
	mats []*numeric.Dense // mats[t] = Q(t)
	m    *numeric.Dense
}

// NewQSequence prepares the Q(t) recursion for the given scheme. For FOS
// beta is ignored.
func NewQSequence(op *spectral.Operator, kind core.Kind, beta float64) (*QSequence, error) {
	n := op.Graph().NumNodes()
	if n > maxDenseNodes {
		return nil, fmt.Errorf("%w: n=%d > %d", ErrTooLarge, n, maxDenseNodes)
	}
	if kind == core.SOS && (beta <= 0 || beta >= 2) {
		return nil, fmt.Errorf("divergence: SOS needs beta in (0,2), got %g", beta)
	}
	return &QSequence{
		op:   op,
		kind: kind,
		beta: beta,
		mats: []*numeric.Dense{numeric.Identity(n)},
		m:    op.Dense(),
	}, nil
}

// Q returns Q(t), computing and caching the recursion as needed.
func (q *QSequence) Q(t int) (*numeric.Dense, error) {
	if t < 0 {
		return nil, fmt.Errorf("divergence: Q(%d): negative round", t)
	}
	for len(q.mats) <= t {
		cur := len(q.mats)
		var next *numeric.Dense
		var err error
		switch {
		case q.kind == core.FOS:
			// Q(t) = M·Q(t−1).
			next, err = numeric.Mul(q.m, q.mats[cur-1])
		case cur == 1:
			// Q(1) = βM.
			next, err = numeric.AddScaled(numeric.NewDense(q.m.Rows, q.m.Cols), q.beta, q.m)
		default:
			// Q(t) = βM·Q(t−1) + (1−β)Q(t−2).
			var bmq *numeric.Dense
			bmq, err = numeric.Mul(q.m, q.mats[cur-1])
			if err != nil {
				break
			}
			numeric.Scale(q.beta, bmq.Data)
			next, err = numeric.AddScaled(bmq, 1-q.beta, q.mats[cur-2])
		}
		if err != nil {
			return nil, err
		}
		q.mats = append(q.mats, next)
	}
	return q.mats[t], nil
}

// Contribution returns C_{k,i→j}(t) under the package's index convention.
func (q *QSequence) Contribution(k, i, j, t int) (float64, error) {
	if t == 0 {
		return 0, nil
	}
	qt, err := q.Q(t - 1)
	if err != nil {
		return 0, err
	}
	return qt.At(k, i) - qt.At(k, j), nil
}

// ColumnSumSpread returns max−min of the column sums of Q(t); Lemma 7(3)
// says this is 0 for every t.
func (q *QSequence) ColumnSumSpread(t int) (float64, error) {
	qt, err := q.Q(t)
	if err != nil {
		return 0, err
	}
	sums := qt.ColumnSums()
	mn, mx := sums[0], sums[0]
	for _, s := range sums[1:] {
		if s < mn {
			mn = s
		}
		if s > mx {
			mx = s
		}
	}
	return mx - mn, nil
}

// UpsilonOptions tunes the refined-local-divergence computation.
type UpsilonOptions struct {
	// MaxRounds bounds the truncated sum over s (default 10·n).
	MaxRounds int
	// Tol stops the sum once a term falls below Tol relative to the
	// accumulated total for 8 consecutive rounds (default 1e-12).
	Tol float64
	// Nodes restricts the max over k to a subset (nil = all nodes).
	Nodes []int
}

// Upsilon computes the (truncated) refined local divergence
//
//	Υ_C(G) = max_k ( Σ_{s>=1} Σ_i max_{j∈N(i)} C_{k,i→j}(s)² )^{1/2}.
//
// The sum converges geometrically once Q(t)'s non-principal eigenvalues
// decay; the truncation point is reported alongside the value.
func Upsilon(q *QSequence, opts UpsilonOptions) (value float64, rounds int, err error) {
	g := q.op.Graph()
	n := g.NumNodes()
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 10 * n
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-12
	}
	nodes := opts.Nodes
	if nodes == nil {
		nodes = make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	offsets, arcs := g.Offsets(), g.Arcs()
	var worst float64
	var worstRounds int
	for _, k := range nodes {
		if k < 0 || k >= n {
			return 0, 0, fmt.Errorf("divergence: node %d out of range", k)
		}
		var acc float64
		quiet := 0
		s := 1
		for ; s <= opts.MaxRounds; s++ {
			qt, err := q.Q(s - 1)
			if err != nil {
				return 0, 0, err
			}
			row := qt.Row(k)
			var term float64
			for i := 0; i < n; i++ {
				var best float64
				qki := row[i]
				for a := offsets[i]; a < offsets[i+1]; a++ {
					d := qki - row[arcs[a]]
					if d2 := d * d; d2 > best {
						best = d2
					}
				}
				term += best
			}
			acc += term
			if term <= opts.Tol*(1+acc) {
				quiet++
				if quiet >= 8 {
					break
				}
			} else {
				quiet = 0
			}
		}
		if acc > worst {
			worst = acc
			worstRounds = s
		}
	}
	return math.Sqrt(worst), worstRounds, nil
}

// TheoremBound evaluates the parametric deviation bound of Theorem 3/
// Observation 4: Υ_C(G)·√(d·log n) (without the hidden constant).
func TheoremBound(upsilon float64, maxDegree, n int) float64 {
	return upsilon * math.Sqrt(float64(maxDegree)*math.Log(float64(n)))
}

// Theorem8Bound evaluates the arbitrary-rounding SOS deviation bound of
// Theorem 8, d·√(n·s_max)/(1−λ) (constant taken as 1), the quantity the
// paper compares against the ‖·‖₂ bound of [12].
func Theorem8Bound(maxDegree, n int, sMax, lambda float64) float64 {
	return float64(maxDegree) * math.Sqrt(float64(n)*sMax) / (1 - lambda)
}

// --- Lemma 2: exact telescoping identity on real runs ---

// Lemma2Result reports the outcome of VerifyLemma2.
type Lemma2Result struct {
	// Rounds is the number of rounds checked.
	Rounds int
	// MaxAbsError is the worst |predicted − actual| deviation entry over
	// all nodes at the final round.
	MaxAbsError float64
	// MaxDeviation is max_k |x_D_k(T) − x_C_k(T)|, for scale.
	MaxDeviation float64
}

// VerifyLemma2 runs the discrete process D (with the given rounder and
// seed) and its continuous counterpart C from the same initial loads for
// `rounds` rounds, records every per-edge rounding error, and checks that
// the telescoping identity of Lemma 2 reproduces the final deviation
// x_D(T) − x_C(T) at every node.
func VerifyLemma2(op *spectral.Operator, kind core.Kind, beta float64,
	rounder core.Rounder, seed uint64, x0 []int64, rounds int) (Lemma2Result, error) {

	g := op.Graph()
	n := g.NumNodes()
	if n > maxDenseNodes {
		return Lemma2Result{}, fmt.Errorf("%w: n=%d", ErrTooLarge, n)
	}
	cfg := core.Config{Op: op, Kind: kind, Beta: beta}
	disc, err := core.NewDiscrete(cfg, rounder, seed, x0)
	if err != nil {
		return Lemma2Result{}, err
	}
	disc.RecordScheduledFlows(true)
	x0f := make([]float64, n)
	for i, v := range x0 {
		x0f[i] = float64(v)
	}
	cont, err := core.NewContinuous(cfg, x0f)
	if err != nil {
		return Lemma2Result{}, err
	}

	// Record e_ij(r) per round for edges i<j (arc orientation i->j).
	offsets, arcs := g.Offsets(), g.Arcs()
	edges := g.Edges()
	errsPerRound := make([][]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		disc.Step()
		cont.Step()
		sched := disc.ScheduledFlows()
		flows := disc.Flows()
		e := make([]float64, len(edges))
		idx := 0
		for i := 0; i < n; i++ {
			for a := offsets[i]; a < offsets[i+1]; a++ {
				if int32(i) < arcs[a] {
					e[idx] = sched[a] - float64(flows[a])
					idx++
				}
			}
		}
		errsPerRound = append(errsPerRound, e)
	}

	q, err := NewQSequence(op, kind, beta)
	if err != nil {
		return Lemma2Result{}, err
	}
	// predicted_k = Σ_{s=1}^{T} Σ_edges e(T−s)[edge] · (Q_{k,i}(s−1) − Q_{k,j}(s−1))
	predicted := make([]float64, n)
	for s := 1; s <= rounds; s++ {
		qt, err := q.Q(s - 1)
		if err != nil {
			return Lemma2Result{}, err
		}
		e := errsPerRound[rounds-s]
		for idx, ed := range edges {
			ev := e[idx]
			if ev == 0 {
				continue
			}
			i, j := ed[0], ed[1]
			for k := 0; k < n; k++ {
				predicted[k] += ev * (qt.At(k, i) - qt.At(k, j))
			}
		}
	}

	res := Lemma2Result{Rounds: rounds}
	xd := disc.LoadsInt()
	xc := cont.LoadsFloat()
	for k := 0; k < n; k++ {
		actual := float64(xd[k]) - xc[k]
		if a := math.Abs(actual); a > res.MaxDeviation {
			res.MaxDeviation = a
		}
		if d := math.Abs(predicted[k] - actual); d > res.MaxAbsError {
			res.MaxAbsError = d
		}
	}
	return res, nil
}

// --- Section V: negative load bounds ---

// Observation5Bound returns the end-of-round lower bound of Observation 5
// for continuous SOS with β_opt: x(t) >= −√n·Δ(0).
func Observation5Bound(n int, delta0 float64) float64 {
	return -math.Sqrt(float64(n)) * delta0
}

// Theorem10Bound returns the transient-load lower bound of Theorem 10 for
// continuous SOS with β_opt: x̆_i(t) >= −O(√n·Δ(0)/√(1−λ)). The constant
// is taken as 1 (the paper's bound is asymptotic); callers compare shapes,
// not constants.
func Theorem10Bound(n int, delta0, lambda float64) float64 {
	return -math.Sqrt(float64(n)) * delta0 / math.Sqrt(1-lambda)
}

// Theorem11Bound returns the discrete analogue of Theorem 11:
// x̆_i(t) >= −O((√n·Δ(0) + d²)/√(1−λ)).
func Theorem11Bound(n int, delta0, lambda float64, maxDegree int) float64 {
	d := float64(maxDegree)
	return -(math.Sqrt(float64(n))*delta0 + d*d) / math.Sqrt(1-lambda)
}

// Delta0 computes Δ(0) = max_i x_i − x̄ for an integer load vector.
func Delta0(x []int64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum int64
	mx := x[0]
	for _, v := range x {
		sum += v
		if v > mx {
			mx = v
		}
	}
	return float64(mx) - float64(sum)/float64(len(x))
}

// MinInitialLoadForSafety inverts Theorem 10: the uniform base load needed
// so that no node can go (transiently) negative, i.e. the magnitude of the
// Theorem 10 bound.
func MinInitialLoadForSafety(n int, delta0, lambda float64) float64 {
	return -Theorem10Bound(n, delta0, lambda)
}
