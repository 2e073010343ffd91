// Package spectral builds diffusion matrices and computes the spectral
// quantities that govern diffusion load balancing: the second largest
// eigenvalue λ (in magnitude) of the diffusion matrix M and the optimal
// second-order parameter β_opt = 2/(1+√(1−λ²)) (Section II of the paper,
// reproduced in Table I).
//
// The diffusion matrix follows the paper throughout:
//
//	homogeneous:   M_ij = α_ij,             M_ii = 1 − Σ_j α_ij
//	heterogeneous: M = I − L S⁻¹  with L the α-weighted Laplacian and
//	               S = diag(s_i), i.e. flows y_ij = α_ij (x_i/s_i − x_j/s_j)
//
// with the standard rule α_ij = 1/(max(d_i, d_j)+1) unless configured
// otherwise. M is column-stochastic (load conserving) and similar to the
// symmetric matrix I − S^{−1/2} L S^{−1/2}, so its spectrum is real; λ is
// computed by power iteration on the symmetrized operator with the principal
// eigenvector (√s_i) deflated away.
package spectral

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/numeric"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/shard"
)

// ErrNoConvergence is returned when power iteration fails to reach the
// requested tolerance within the iteration budget.
var ErrNoConvergence = errors.New("spectral: power iteration did not converge")

// AlphaRule determines the per-edge diffusion coefficient α_ij.
type AlphaRule interface {
	// Alpha returns α for the edge {i, j} of g. It must be symmetric in
	// (i, j) and positive.
	Alpha(g *graph.Graph, i, j int) float64
	// String names the rule for reports.
	String() string
}

// MaxDegreeAlpha is the paper's default α_ij = 1/(max(d_i, d_j)+1).
type MaxDegreeAlpha struct{}

// Alpha implements AlphaRule.
func (MaxDegreeAlpha) Alpha(g *graph.Graph, i, j int) float64 {
	di, dj := g.Degree(i), g.Degree(j)
	if dj > di {
		di = dj
	}
	return 1 / float64(di+1)
}

func (MaxDegreeAlpha) String() string { return "alpha=1/(max(di,dj)+1)" }

// ConstantAlpha uses a fixed α on every edge (the α_ij = 1/(γd) family of
// Observation 3). The constructor of Operator validates that the resulting
// diagonal stays non-negative.
type ConstantAlpha struct{ Value float64 }

// Alpha implements AlphaRule.
func (c ConstantAlpha) Alpha(*graph.Graph, int, int) float64 { return c.Value }

func (c ConstantAlpha) String() string { return fmt.Sprintf("alpha=%g", c.Value) }

// GammaDegreeAlpha is α_ij = 1/(γ·d) with d the maximum degree, the exact
// setting of Observation 3 (γ >= 1 keeps M non-negative for γ >= (d+1)/d).
type GammaDegreeAlpha struct{ Gamma float64 }

// Alpha implements AlphaRule.
func (ga GammaDegreeAlpha) Alpha(g *graph.Graph, _, _ int) float64 {
	return 1 / (ga.Gamma * float64(g.MaxDegree()))
}

func (ga GammaDegreeAlpha) String() string { return fmt.Sprintf("alpha=1/(%g*d)", ga.Gamma) }

// Operator is the diffusion matrix M = I − L S⁻¹ of a graph with speeds,
// stored implicitly: the arc coefficients α plus the speed vector. When
// every arc carries the same α — any rule on a regular graph, and
// ConstantAlpha everywhere — the operator keeps that one value instead of
// a per-arc array (see ArcAlphas). It supports fast matrix-vector products
// with M and Mᵀ and densification for small graphs.
//
// Concurrency: all read operations (products, Dense, SecondEigenvalue) are
// safe to call concurrently. Reweight mutates the operator in place and
// must not run concurrently with any other method — drivers apply it
// between simulation rounds, on operators not shared across concurrent
// runs (Clone gives each run its own).
type Operator struct {
	g      *graph.Graph
	speeds *hetero.Speeds
	alpha  ArcAlphas
	rule   AlphaRule
	// rowAlphaSum[i] = Σ_{j∈N(i)} α_ij, cached for the diagonal.
	rowAlphaSum []float64

	// Cached second eigenvalue (guarded by mu so concurrent reads can share
	// it); invalidated by Reweight, which moves the whole spectrum.
	mu        sync.Mutex
	lamValid  bool
	lamOpts   PowerOptions
	lam       float64
	lamSigned float64
}

// NewOperator builds the diffusion operator for g with the given speeds
// (nil means homogeneous) and α rule (nil means MaxDegreeAlpha). It returns
// an error if any diagonal entry of M would be negative, i.e. if the α rule
// is too aggressive for the degree/speed profile.
func NewOperator(g *graph.Graph, speeds *hetero.Speeds, rule AlphaRule) (*Operator, error) {
	if g == nil {
		return nil, errors.New("spectral: nil graph")
	}
	if rule == nil {
		rule = MaxDegreeAlpha{}
	}
	if speeds == nil {
		speeds = hetero.Homogeneous(g.NumNodes())
	}
	if speeds.Len() != g.NumNodes() {
		return nil, fmt.Errorf("spectral: %d speeds for %d nodes", speeds.Len(), g.NumNodes())
	}
	n := g.NumNodes()
	offsets, arcs := g.Offsets(), g.Arcs()
	// α starts out uniform; the per-arc array is materialized at the first
	// arc whose α differs from arc 0's.
	var alpha ArcAlphas
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := int(arcs[a])
			v := rule.Alpha(g, i, j)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("spectral: alpha(%d,%d)=%g invalid", i, j, v)
			}
			switch {
			case a == 0:
				alpha.uniform = v
			case alpha.perArc == nil && v != alpha.uniform: //lint:allow floateq the uniform form must reproduce every arc's α bit for bit
				alpha.perArc = make([]float64, len(arcs))
				for b := range alpha.perArc[:a] {
					alpha.perArc[b] = alpha.uniform
				}
			}
			if alpha.perArc != nil {
				alpha.perArc[a] = v
			}
			rowSum[i] += v
		}
	}
	for i := 0; i < n; i++ {
		if diag := 1 - rowSum[i]/speeds.Of(i); diag < -1e-12 {
			return nil, fmt.Errorf("spectral: negative diagonal %g at node %d (alpha rule too large)", diag, i)
		}
	}
	return &Operator{g: g, speeds: speeds, alpha: alpha, rule: rule, rowAlphaSum: rowSum}, nil
}

// Graph returns the underlying graph.
func (op *Operator) Graph() *graph.Graph { return op.g }

// ShapeMatches reports whether the operator covers a graph of exactly the
// given node and arc counts — the Retarget precondition shared by the
// shared-memory engines and the actor runtime (a retargeted operator may
// be a different instance, but must address the same CSR shape).
func (op *Operator) ShapeMatches(nodes, arcs int) bool {
	return op.g.NumNodes() == nodes && op.g.NumArcs() == arcs
}

// Speeds returns the speed assignment.
func (op *Operator) Speeds() *hetero.Speeds { return op.speeds }

// Rule returns the α rule in use.
func (op *Operator) Rule() AlphaRule { return op.rule }

// AlphaArc returns α for the arc at position a in the CSR arc array.
func (op *Operator) AlphaArc(a int) float64 { return op.alpha.At(a) }

// Alphas returns the per-arc α coefficients in a fresh slice (one entry per
// arc, also for a uniform operator), so callers can never corrupt the
// operator's internal storage by mutating the result.
func (op *Operator) Alphas() []float64 {
	out := make([]float64, op.g.NumArcs())
	op.alpha.fill(out)
	return out
}

// AlphasInto writes the per-arc α coefficients into dst, which must have
// length NumArcs — the allocation-free form of Alphas.
func (op *Operator) AlphasInto(dst []float64) error {
	if len(dst) != op.g.NumArcs() {
		return fmt.Errorf("spectral: AlphasInto: %d slots for %d arcs", len(dst), op.g.NumArcs())
	}
	op.alpha.fill(dst)
	return nil
}

// AlphaView exposes the α coefficients without copying — the hot-loop
// access the engines use, reading each arc's α through ArcAlphas.At. α is a
// function of the graph alone (an AlphaRule never sees speeds), so the view
// stays valid across Reweight; callers must not modify the slice behind
// it. Callers that need a plain per-arc array take Alphas() instead.
func (op *Operator) AlphaView() ArcAlphas { return op.alpha }

// ArcAlphas is the storage of an operator's α coefficients: one value when
// every arc carries the same α, otherwise one value per CSR arc. The
// uniform form saves the 8 B/arc array and its memory traffic in every
// product and engine round.
type ArcAlphas struct {
	perArc  []float64 // nil when every arc carries uniform; symmetric across mates
	uniform float64
}

// At returns α for the arc at position a in the CSR arc array.
func (v ArcAlphas) At(a int) float64 {
	if v.perArc == nil {
		return v.uniform
	}
	return v.perArc[a]
}

// Uniform returns the common α and true when every arc carries it.
func (v ArcAlphas) Uniform() (float64, bool) { return v.uniform, v.perArc == nil }

// fill writes every arc's α into dst (length NumArcs).
func (v ArcAlphas) fill(dst []float64) {
	if v.perArc != nil {
		copy(dst, v.perArc)
		return
	}
	for a := range dst {
		dst[a] = v.uniform
	}
}

// Reweight swaps the operator's speed vector in place (nil means
// homogeneous), revalidating that every diagonal entry of M stays
// non-negative, and invalidates the cached second eigenvalue — the whole
// spectrum moves with S. The α coefficients are functions of the graph
// alone (an AlphaRule never sees speeds), so the CSR α storage and the
// cached row sums are reused as-is; that is what makes Reweight much
// cheaper than rebuilding the operator with NewOperator.
//
// On error the operator is left unchanged. Reweight must not run
// concurrently with any other method on this operator; drivers apply it
// between rounds (see the struct's concurrency note).
//
//lbvet:hotpath speed events can fire every round; the swap is O(n) with no allocation
func (op *Operator) Reweight(speeds *hetero.Speeds) error {
	n := op.g.NumNodes()
	if speeds == nil {
		speeds = hetero.Homogeneous(n)
	}
	if speeds.Len() != n {
		return fmt.Errorf("spectral: Reweight: %d speeds for %d nodes", speeds.Len(), n)
	}
	if speeds == op.speeds {
		return nil
	}
	for i := 0; i < n; i++ {
		if diag := 1 - op.rowAlphaSum[i]/speeds.Of(i); diag < -1e-12 {
			return fmt.Errorf("spectral: Reweight: negative diagonal %g at node %d (alpha rule too large for the new speeds)", diag, i)
		}
	}
	op.speeds = speeds
	op.mu.Lock()
	op.lamValid = false
	op.mu.Unlock()
	return nil
}

// ReweightPar is Reweight with the O(n) diagonal revalidation sharded: each
// shard validates its own node range and records the smallest offending
// node, and the shard-order combine reports the same first error the
// sequential scan finds. On error the operator is left unchanged. Like
// Reweight it must not run concurrently with any other method; lay must
// partition the operator's graph (a nil or foreign layout falls back to the
// sequential Reweight).
//
//lbvet:hotpath speed events can fire every round; scratch below is per event, not per round
func (op *Operator) ReweightPar(speeds *hetero.Speeds, lay *shard.Layout, workers int) error {
	if lay == nil || lay.Graph() != op.g {
		return op.Reweight(speeds)
	}
	n := op.g.NumNodes()
	if speeds == nil {
		speeds = hetero.Homogeneous(n)
	}
	if speeds.Len() != n {
		return fmt.Errorf("spectral: Reweight: %d speeds for %d nodes", speeds.Len(), n)
	}
	if speeds == op.speeds {
		return nil
	}
	badNode := make([]int, lay.Shards())     //lint:allow hotalloc per-speed-event scratch, two small slices per Reweight, not per round
	badDiag := make([]float64, lay.Shards()) //lint:allow hotalloc per-speed-event scratch, two small slices per Reweight, not per round
	//lint:allow hotalloc one closure per speed event, not per round
	lay.Run(workers, func(s, lo, hi int) {
		badNode[s] = -1
		for i := lo; i < hi; i++ {
			if diag := 1 - op.rowAlphaSum[i]/speeds.Of(i); diag < -1e-12 {
				badNode[s], badDiag[s] = i, diag
				return
			}
		}
	})
	for s := 0; s < lay.Shards(); s++ {
		if badNode[s] >= 0 {
			return fmt.Errorf("spectral: Reweight: negative diagonal %g at node %d (alpha rule too large for the new speeds)", badDiag[s], badNode[s])
		}
	}
	op.speeds = speeds
	op.mu.Lock()
	op.lamValid = false
	op.mu.Unlock()
	return nil
}

// MemoryFootprint returns the resident bytes of the operator's own storage
// (the per-arc α array, absent when α is uniform, and the cached row sums);
// the graph is accounted separately by graph.Graph.MemoryFootprint, since
// it is typically shared.
func (op *Operator) MemoryFootprint() int64 {
	return int64(len(op.alpha.perArc)+len(op.rowAlphaSum)) * 8
}

// Clone returns an independent operator over the same (immutable) graph
// with its own α storage, speed reference and spectral cache. Concurrent
// simulations that reweight mid-run must each own a clone; sharing one
// reweightable operator across goroutines is a data race.
func (op *Operator) Clone() *Operator {
	cp := &Operator{
		g:           op.g,
		speeds:      op.speeds,
		alpha:       op.alpha,
		rule:        op.rule,
		rowAlphaSum: make([]float64, len(op.rowAlphaSum)),
	}
	if op.alpha.perArc != nil {
		cp.alpha.perArc = make([]float64, len(op.alpha.perArc))
		copy(cp.alpha.perArc, op.alpha.perArc)
	}
	copy(cp.rowAlphaSum, op.rowAlphaSum)
	op.mu.Lock()
	cp.lamValid, cp.lamOpts, cp.lam, cp.lamSigned = op.lamValid, op.lamOpts, op.lam, op.lamSigned
	op.mu.Unlock()
	return cp
}

// MulVec computes dst = M·x, i.e. one synchronous continuous FOS round:
// dst_i = x_i − Σ_{j∈N(i)} α_ij (x_i/s_i − x_j/s_j). dst is reused when it
// has length n; x and dst must not alias.
func (op *Operator) MulVec(x, dst []float64) []float64 {
	n := op.g.NumNodes()
	if len(x) != n {
		panic(fmt.Sprintf("spectral: MulVec: vector length %d != n=%d", len(x), n))
	}
	if len(dst) != n {
		dst = make([]float64, n)
	}
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	for i := 0; i < n; i++ {
		zi := x[i] / op.speeds.Of(i)
		var out float64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := arcs[a]
			out += op.alpha.At(int(a)) * (zi - x[j]/op.speeds.Of(int(j)))
		}
		dst[i] = x[i] - out
	}
	return dst
}

// MulVecT computes dst = Mᵀ·y:
// dst_j = y_j − (1/s_j) Σ_{i∈N(j)} α_ij (y_j − y_i).
func (op *Operator) MulVecT(y, dst []float64) []float64 {
	n := op.g.NumNodes()
	if len(y) != n {
		panic(fmt.Sprintf("spectral: MulVecT: vector length %d != n=%d", len(y), n))
	}
	if len(dst) != n {
		dst = make([]float64, n)
	}
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	for j := 0; j < n; j++ {
		var acc float64
		for a := offsets[j]; a < offsets[j+1]; a++ {
			acc += op.alpha.At(int(a)) * (y[j] - y[arcs[a]])
		}
		dst[j] = y[j] - acc/op.speeds.Of(j)
	}
	return dst
}

// symMulDot is one product of the power iteration: it writes y = B·x for
// the symmetrized operator B = S^{−1/2} M S^{1/2} = I − S^{−1/2} L S^{−1/2},
//
//	y_i = x_i − (1/√s_i) Σ_j α_ij (x̃_i − x̃_j),   x̃ = x·S^{−1/2},
//
// and returns the deflation coefficient c = Σ_i y_i·p_i against the
// principal eigenvector p. xt holds x̃ (it is x itself for homogeneous
// speeds), so each arc gathers one value.
//
// Every row sums its arcs in ascending order from 0, and c sums the rows
// in ascending order, so the result is bit-identical to a plain
// row-by-row product followed by a separate dot product.
//
//lbvet:hotpath runs once per power-iteration step, tens of thousands of times per λ
func (op *Operator) symMulDot(y, x, xt, invSqrtS, p []float64) float64 {
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	if alpha, ok := op.alpha.Uniform(); ok {
		return symMulDotUniform(alpha, y, x, xt, invSqrtS, p, offsets, arcs)
	}
	return symMulDotPerArc(op.alpha.perArc, y, x, xt, invSqrtS, p, offsets, arcs)
}

// symMulDotUniform is symMulDot for an operator whose arcs all carry α.
// Four consecutive rows are summed side by side, so their floating-point
// add chains overlap: their first d arcs (d the least of the four degrees)
// in lockstep, then each row's remaining arcs.
//
//lbvet:hotpath the uniform-α body of symMulDot
func symMulDotUniform(alpha float64, y, x, xt, invSqrtS, p []float64, offsets, arcs []int32) (c float64) {
	n := len(y)
	i := 0
	for ; i+4 <= n; i += 4 {
		blk, s1, s2, s3, d := rows4(arcs, offsets[i:i+5])
		x0, x1, x2, x3 := xt[i], xt[i+1], xt[i+2], xt[i+3]
		r0, r1, r2, r3 := blk[:d], blk[s1:s1+d], blk[s2:s2+d], blk[s3:s3+d]
		var a0, a1, a2, a3 float64
		for k, j0 := range r0 {
			j1, j2, j3 := r1[k], r2[k], r3[k]
			a0 += alpha * (x0 - xt[j0])
			a1 += alpha * (x1 - xt[j1])
			a2 += alpha * (x2 - xt[j2])
			a3 += alpha * (x3 - xt[j3])
		}
		if len(blk) != 4*d {
			a0 = rowUniform(a0, alpha, x0, xt, blk[d:s1])
			a1 = rowUniform(a1, alpha, x1, xt, blk[s1+d:s2])
			a2 = rowUniform(a2, alpha, x2, xt, blk[s2+d:s3])
			a3 = rowUniform(a3, alpha, x3, xt, blk[s3+d:])
		}
		y0 := x[i] - a0*invSqrtS[i]
		y1 := x[i+1] - a1*invSqrtS[i+1]
		y2 := x[i+2] - a2*invSqrtS[i+2]
		y3 := x[i+3] - a3*invSqrtS[i+3]
		y[i], y[i+1], y[i+2], y[i+3] = y0, y1, y2, y3
		c += y0 * p[i]
		c += y1 * p[i+1]
		c += y2 * p[i+2]
		c += y3 * p[i+3]
	}
	for ; i < n; i++ {
		yi := x[i] - rowUniform(0, alpha, xt[i], xt, arcs[offsets[i]:offsets[i+1]])*invSqrtS[i]
		y[i] = yi
		c += yi * p[i]
	}
	return c
}

// symMulDotPerArc is symMulDot for an operator with one α per arc, one
// row at a time.
//
//lbvet:hotpath the per-arc-α body of symMulDot
func symMulDotPerArc(perArc, y, x, xt, invSqrtS, p []float64, offsets, arcs []int32) (c float64) {
	for i := range y {
		lo, hi := offsets[i], offsets[i+1]
		yi := x[i] - rowPerArc(0, xt[i], xt, arcs[lo:hi], perArc[lo:hi])*invSqrtS[i]
		y[i] = yi
		c += yi * p[i]
	}
	return c
}

// rows4 returns the arcs of the four rows whose offsets are off[0:5], as
// one block with the rows starting at 0, s1, s2 and s3, and the least of
// the four degrees d.
func rows4(arcs, off []int32) (blk []int32, s1, s2, s3, d int) {
	blk = arcs[off[0]:off[4]]
	s1, s2, s3 = int(off[1]-off[0]), int(off[2]-off[0]), int(off[3]-off[0])
	return blk, s1, s2, s3, min(s1, s2-s1, s3-s2, len(blk)-s3)
}

// rowUniform adds α·(xi − xt_j) to acc for each neighbor j in nbrs, in
// order.
func rowUniform(acc, alpha, xi float64, xt []float64, nbrs []int32) float64 {
	for _, j := range nbrs {
		acc += alpha * (xi - xt[j])
	}
	return acc
}

// rowPerArc adds alphas[k]·(xi − xt_j) to acc for the k-th neighbor j in
// nbrs, in order.
func rowPerArc(acc, xi float64, xt []float64, nbrs []int32, alphas []float64) float64 {
	for k, j := range nbrs {
		acc += alphas[k] * (xi - xt[j])
	}
	return acc
}

// Dense materializes M for small graphs (tests, Q(t) analysis).
func (op *Operator) Dense() *numeric.Dense {
	n := op.g.NumNodes()
	m := numeric.NewDense(n, n)
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	for i := 0; i < n; i++ {
		m.Set(i, i, 1-op.rowAlphaSum[i]/op.speeds.Of(i))
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := int(arcs[a])
			// Column-stochastic orientation: load moves j -> i with weight
			// α_ij/s_j, so M_ij = α_ij/s_j (and x(t+1) = M x(t)).
			m.Set(i, j, op.alpha.At(int(a))/op.speeds.Of(j))
		}
	}
	return m
}

// ColumnSums writes M's column sums into dst (length n). A well-formed
// operator is exactly column-stochastic — column j is its diagonal
// 1 − Σα/s_j plus the α_ij/s_j contributions of j's neighbors, which
// cancel when α is symmetric across arc mates — so the sums are an
// independent runtime check of that symmetry: internal/invariants asserts
// them after every Reweight.
//
// The accumulation gathers per column: column j adds its neighbors'
// contributions α_ij/s_j in ascending neighbor order (adjacency lists are
// sorted), reading each α through the mate index — the same float the old
// scatter over rows added, in the same i-ascending order, so the result is
// bit-identical to the historical scatter form while every column is now
// independent of every other (the property ColumnSumsPar exploits).
func (op *Operator) ColumnSums(dst []float64) error {
	n := op.g.NumNodes()
	if len(dst) != n {
		return fmt.Errorf("spectral: ColumnSums: %d slots for %d nodes", len(dst), n)
	}
	op.columnSumsRange(dst, 0, n)
	return nil
}

// columnSumsRange fills dst[lo:hi] with the column sums of columns
// [lo, hi) — the shard kernel behind ColumnSums and ColumnSumsPar.
//
//lbvet:hotpath conservation-check kernel, run per verification round over every arc
func (op *Operator) columnSumsRange(dst []float64, lo, hi int) {
	offsets, mate := op.g.Offsets(), op.g.MateIndex()
	for j := lo; j < hi; j++ {
		sj := op.speeds.Of(j)
		acc := 1 - op.rowAlphaSum[j]/sj
		for a := offsets[j]; a < offsets[j+1]; a++ {
			acc += op.alpha.At(int(mate[a])) / sj
		}
		dst[j] = acc
	}
}

// ColumnSumsPar is ColumnSums over a shard layout: each shard gathers its
// own columns, so the check parallelizes with no scatter races and no
// change in the result — every dst[j] is written by exactly one shard with
// the exact value the sequential form produces. lay must partition the
// operator's graph.
func (op *Operator) ColumnSumsPar(lay *shard.Layout, workers int, dst []float64) error {
	n := op.g.NumNodes()
	if len(dst) != n {
		return fmt.Errorf("spectral: ColumnSums: %d slots for %d nodes", len(dst), n)
	}
	if lay == nil || lay.Graph() != op.g {
		return op.ColumnSums(dst)
	}
	lay.Run(workers, func(_, lo, hi int) {
		op.columnSumsRange(dst, lo, hi)
	})
	return nil
}

// PowerOptions tunes SecondEigenvalue.
type PowerOptions struct {
	// MaxIter bounds the iteration count (default 200000).
	MaxIter int
	// Tol is the relative eigenvalue-change tolerance (default 1e-12).
	Tol float64
	// Seed seeds the random start vector (default 1).
	Seed uint64
}

func (o PowerOptions) withDefaults() PowerOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SecondEigenvalue returns λ, the second largest eigenvalue of M in
// magnitude, computed by deflated power iteration on the symmetric
// similarity transform of M. The returned value is the magnitude |λ₂|
// (which is what β_opt and every bound in the paper uses) together with the
// signed Rayleigh quotient of the converged vector.
//
// The converged result is cached per options, so repeated calls (e.g.
// after checkpoint restores) are free; Reweight invalidates the cache.
func (op *Operator) SecondEigenvalue(opts PowerOptions) (lambda, signed float64, err error) {
	opts = opts.withDefaults()
	op.mu.Lock()
	if op.lamValid && op.lamOpts == opts {
		lambda, signed = op.lam, op.lamSigned
		op.mu.Unlock()
		return lambda, signed, nil
	}
	op.mu.Unlock()
	lambda, signed, err = op.secondEigenvalue(opts)
	if err == nil {
		op.mu.Lock()
		op.lamValid, op.lamOpts, op.lam, op.lamSigned = true, opts, lambda, signed
		op.mu.Unlock()
	}
	return lambda, signed, err
}

// secondEigenvalue is the uncached power iteration behind SecondEigenvalue;
// opts already has defaults applied.
func (op *Operator) secondEigenvalue(opts PowerOptions) (lambda, signed float64, err error) {
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
	// x̃ = x·S^{−1/2} is what the product gathers; with homogeneous speeds
	// S^{−1/2} = I and x̃ is x itself.
	xt, yt := x, y
	if !op.speeds.IsHomogeneous() {
		xt, yt = make([]float64, n), make([]float64, n)
		for i := range x {
			xt[i] = x[i] * invSqrtS[i]
		}
	}
	return op.powerIterate(x, y, xt, yt, invSqrtS, principal, opts)
}

// powerIterate runs the deflated power iteration from the unit start
// vector x (x̃ in xt), with y and yt as scratch. Each step makes three
// passes over the nodes: the product with the deflation dot (symMulDot);
// the deflation with the Rayleigh quotient Σ x_i y_i and Σ y_i² (‖x‖ = 1);
// and the normalization of y, which also writes ỹ = y·S^{−1/2} for the next
// product (for homogeneous speeds yt is y and S^{−1/2} is exactly 1, so
// that write stores y_i again). Each sum runs in ascending node order, as
// a separate numeric.Dot would.
//
//lbvet:hotpath the whole iteration, up to MaxIter steps per λ; all vectors come from the caller
func (op *Operator) powerIterate(x, y, xt, yt, invSqrtS, principal []float64, opts PowerOptions) (lambda, signed float64, err error) {
	prev := math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		c := op.symMulDot(y, x, xt, invSqrtS, principal)
		var sq float64
		signed = 0
		for i, p := range principal {
			yi := y[i] + -c*p
			y[i] = yi
			signed += x[i] * yi
			sq += yi * yi
		}
		norm := math.Sqrt(sq)
		if norm == 0 {
			return 0, 0, nil // M restricted to the complement is nilpotent-zero
		}
		if math.Abs(norm-prev) <= opts.Tol*(1+norm) && iter > 8 {
			return norm, signed, nil
		}
		prev = norm
		inv := 1 / norm
		for i := range y {
			yi := y[i] * inv
			y[i] = yi
			yt[i] = yi * invSqrtS[i]
		}
		x, y = y, x
		xt, yt = yt, xt
	}
	return prev, signed, fmt.Errorf("%w after %d iterations (last |λ|≈%.9g)", ErrNoConvergence, opts.MaxIter, prev)
}

// BetaOpt returns the optimal SOS parameter β_opt = 2/(1+√(1−λ²)) for a
// second eigenvalue magnitude λ ∈ [0, 1).
func BetaOpt(lambda float64) (float64, error) {
	if lambda < 0 || lambda >= 1 || math.IsNaN(lambda) {
		return 0, fmt.Errorf("spectral: BetaOpt: lambda=%g outside [0,1)", lambda)
	}
	return 2 / (1 + math.Sqrt(1-lambda*lambda)), nil
}

// FOSRounds returns the continuous-FOS balancing-time scale log(Kn)/(1−λ)
// used throughout the paper's statements, for an initial discrepancy K.
func FOSRounds(k float64, n int, lambda float64) float64 {
	return math.Log(k*float64(n)) / (1 - lambda)
}

// SOSRounds returns the continuous-SOS balancing-time scale
// log(Kn)/√(1−λ).
func SOSRounds(k float64, n int, lambda float64) float64 {
	return math.Log(k*float64(n)) / math.Sqrt(1-lambda)
}

// AnalyticTorus2DLambda returns the exact second eigenvalue (in magnitude)
// of the max-degree-rule diffusion matrix on the w×h torus with w, h >= 3:
// eigenvalues are 1 − (2/5)(2 − cos(2πk₁/w) − cos(2πk₂/h)).
func AnalyticTorus2DLambda(w, h int) (float64, error) {
	if w < 3 || h < 3 {
		return 0, fmt.Errorf("graph: AnalyticTorus2DLambda(%d,%d) needs sides >= 3: %w", w, h, graph.ErrBadParameter)
	}
	lambda := 0.0
	for k1 := 0; k1 < w; k1++ {
		for k2 := 0; k2 < h; k2++ {
			if k1 == 0 && k2 == 0 {
				continue
			}
			mu := 1 - (2.0/5.0)*(2-math.Cos(2*math.Pi*float64(k1)/float64(w))-math.Cos(2*math.Pi*float64(k2)/float64(h)))
			if a := math.Abs(mu); a > lambda {
				lambda = a
			}
		}
	}
	return lambda, nil
}

// AnalyticHypercubeLambda returns the exact second eigenvalue (in magnitude)
// for the dim-dimensional hypercube under the max-degree rule α = 1/(d+1):
// the spectrum is {1 − 2k/(d+1)} and λ = (d−1)/(d+1).
func AnalyticHypercubeLambda(dim int) (float64, error) {
	if dim < 2 {
		return 0, fmt.Errorf("graph: AnalyticHypercubeLambda(%d): %w", dim, graph.ErrBadParameter)
	}
	d := float64(dim)
	return (d - 1) / (d + 1), nil
}

// AnalyticCycleLambda returns the exact λ for the n-cycle under the
// max-degree rule α = 1/3: eigenvalues 1 − (2/3)(1 − cos(2πk/n)).
func AnalyticCycleLambda(n int) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("graph: AnalyticCycleLambda(%d): %w", n, graph.ErrBadParameter)
	}
	lambda := 0.0
	for k := 1; k < n; k++ {
		mu := 1 - (2.0/3.0)*(1-math.Cos(2*math.Pi*float64(k)/float64(n)))
		if a := math.Abs(mu); a > lambda {
			lambda = a
		}
	}
	return lambda, nil
}

// AnalyticCompleteLambda returns λ for K_n under the max-degree rule
// α = 1/n: M = J/n has spectrum {1, 0, …, 0}, so λ = 0.
func AnalyticCompleteLambda(n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("graph: AnalyticCompleteLambda(%d): %w", n, graph.ErrBadParameter)
	}
	return 0, nil
}
