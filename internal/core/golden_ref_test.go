package core

// This file preserves the pre-shard-layout step path of all three engines,
// verbatim except for renaming, as the oracle for the golden equivalence
// tests (golden_equiv_test.go): the shard refactor promised bit-identical
// results, and these reference implementations are what "identical" is
// measured against. They intentionally keep every quirk of the old path —
// the private α copy refreshed by Retarget, the chunk-indexed scratch
// sized by refNumChunks, the separate scheduled/rounding passes over a
// single flows buffer, the per-node PCGPair3 reseed and the *rand.Rand
// randomized rounding — so any numerical divergence introduced by the
// fused kernels shows up as a test failure, not a silent drift.

import (
	"fmt"
	"math"
	"math/rand/v2"

	"diffusionlb/internal/randx"
	"diffusionlb/internal/spectral"
)

// refNumChunks mirrors the old numChunks: chunk count from the requested
// worker count (the old GOMAXPROCS cap is deliberately dropped — results
// were chunk-independent, and the golden tests prove it).
func refNumChunks(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = 1
	}
	if workers == 1 || n < 4096 {
		return 1
	}
	chunk := (n + workers - 1) / workers
	return (n + chunk - 1) / chunk
}

// refParallelFor mirrors the old parallelFor inline path (sequential over
// the old chunk boundaries — the reference runs single-threaded; the
// engines' own tests cover goroutine execution).
func refParallelFor(n, workers int, body func(chunk, start, end int)) {
	if n <= 0 {
		return
	}
	chunks := refNumChunks(n, workers)
	if chunks == 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	idx := 0
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		body(idx, start, end)
		idx++
	}
}

// refDiscrete is the pre-refactor Discrete step path.
type refDiscrete struct {
	op      *spectral.Operator
	kind    Kind
	beta    float64
	workers int
	rounder Rounder
	seed    uint64
	alpha   []float64 // the old private copy, refreshed by Retarget

	x          []int64
	flows      []int64
	scheduled  []float64
	z          []float64
	flowsValid bool

	round              int
	minTransient       int64
	minTransientSet    bool
	negTransientRounds int

	scratchVals [][]float64
	scratchOut  [][]int64
	scratchArcs [][]int32
	scratchPCG  []*rand.PCG
	scratchRNG  []*rand.Rand
}

func newRefDiscrete(cfg Config, rounder Rounder, seed uint64, initial []int64) (*refDiscrete, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rounder == nil {
		rounder = RandomizedRounder{}
	}
	n := cfg.Op.Graph().NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	maxDeg := cfg.Op.Graph().MaxDegree()
	chunks := refNumChunks(n, cfg.Workers)
	d := &refDiscrete{
		op:          cfg.Op,
		kind:        cfg.Kind,
		beta:        cfg.Beta,
		workers:     cfg.Workers,
		rounder:     rounder,
		seed:        seed,
		alpha:       cfg.Op.Alphas(),
		x:           make([]int64, n),
		flows:       make([]int64, cfg.Op.Graph().NumArcs()),
		scheduled:   make([]float64, cfg.Op.Graph().NumArcs()),
		z:           make([]float64, n),
		scratchVals: make([][]float64, chunks),
		scratchOut:  make([][]int64, chunks),
		scratchArcs: make([][]int32, chunks),
	}
	d.scratchPCG = make([]*rand.PCG, chunks)
	d.scratchRNG = make([]*rand.Rand, chunks)
	for c := 0; c < chunks; c++ {
		d.scratchVals[c] = make([]float64, maxDeg)
		d.scratchOut[c] = make([]int64, maxDeg)
		d.scratchArcs[c] = make([]int32, maxDeg)
		d.scratchPCG[c] = rand.NewPCG(0, 0)
		d.scratchRNG[c] = rand.New(d.scratchPCG[c])
	}
	copy(d.x, initial)
	return d, nil
}

func (d *refDiscrete) Step() {
	g := graphOf(d.op)
	sp := speedsOf(d.op)
	n := g.NumNodes()
	offsets, arcs, mate := g.Offsets(), g.Arcs(), g.MateIndex()
	alpha := d.alpha

	homog := sp.IsHomogeneous()
	refParallelFor(n, d.workers, func(_, lo, hi int) {
		if homog {
			for i := lo; i < hi; i++ {
				d.z[i] = float64(d.x[i])
			}
		} else {
			for i := lo; i < hi; i++ {
				d.z[i] = float64(d.x[i]) / sp.Of(i)
			}
		}
	})

	secondOrder := d.kind == SOS && d.flowsValid
	beta := d.beta
	sigma := beta - 1
	refParallelFor(n, d.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			zi := d.z[i]
			for a := offsets[i]; a < offsets[i+1]; a++ {
				grad := alpha[a] * (zi - d.z[arcs[a]])
				if secondOrder {
					d.scheduled[a] = sigma*float64(d.flows[a]) + beta*grad
				} else {
					d.scheduled[a] = grad
				}
			}
		}
	})

	round := uint64(d.round)
	seed := d.seed
	needRNG := !d.rounder.Deterministic()
	refParallelFor(n, d.workers, func(chunk, lo, hi int) {
		vals := d.scratchVals[chunk]
		out := d.scratchOut[chunk]
		arcIdx := d.scratchArcs[chunk]
		pcg, rng := d.scratchPCG[chunk], d.scratchRNG[chunk]
		for i := lo; i < hi; i++ {
			cnt := 0
			for a := offsets[i]; a < offsets[i+1]; a++ {
				y := d.scheduled[a]
				if y > 0 {
					vals[cnt] = y
					out[cnt] = 0
					arcIdx[cnt] = a
					cnt++
				} else if y == 0 && int32(i) < arcs[a] {
					d.flows[a] = 0
					d.flows[mate[a]] = 0
				}
			}
			if cnt == 0 {
				continue
			}
			if needRNG {
				pcg.Seed(randx.PCGPair3(seed, round, uint64(i)))
			}
			if _, ok := d.rounder.(RandomizedRounder); ok {
				refRandomizedRoundNode(vals[:cnt], out[:cnt], rng)
			} else {
				d.rounder.RoundNode(vals[:cnt], out[:cnt], rng)
			}
			for k := 0; k < cnt; k++ {
				a := arcIdx[k]
				d.flows[a] = out[k]
				d.flows[mate[a]] = -out[k]
			}
		}
	})

	chunks := refNumChunks(n, d.workers)
	minT := make([]int64, chunks)
	for c := range minT {
		minT[c] = math.MaxInt64
	}
	refParallelFor(n, d.workers, func(chunk, lo, hi int) {
		localT := int64(math.MaxInt64)
		for i := lo; i < hi; i++ {
			var outSum, sentSum int64
			for a := offsets[i]; a < offsets[i+1]; a++ {
				f := d.flows[a]
				outSum += f
				if f > 0 {
					sentSum += f
				}
			}
			if tr := d.x[i] - sentSum; tr < localT {
				localT = tr
			}
			d.x[i] -= outSum
		}
		minT[chunk] = localT
	})
	anyNeg := false
	for c := 0; c < chunks; c++ {
		if !d.minTransientSet || minT[c] < d.minTransient {
			d.minTransient = minT[c]
			d.minTransientSet = true
		}
		if minT[c] < 0 {
			anyNeg = true
		}
	}
	if anyNeg {
		d.negTransientRounds++
	}

	if d.kind == SOS {
		d.flowsValid = true
	}
	d.round++
}

func (d *refDiscrete) SetKind(k Kind) {
	if k == d.kind {
		return
	}
	d.kind = k
	d.flowsValid = false
}

func (d *refDiscrete) SetBeta(beta float64) error {
	if err := betaCheck(beta); err != nil {
		return err
	}
	d.beta = beta
	return nil
}

// Retarget keeps the old α-copy dance: the new path dropped it (α never
// changes on a Reweight), and the equivalence tests prove the drop safe.
func (d *refDiscrete) Retarget(op *spectral.Operator) error {
	if err := retargetCheck(op, len(d.x), len(d.flows)); err != nil {
		return err
	}
	d.op = op
	if err := op.AlphasInto(d.alpha); err != nil {
		return err
	}
	return nil
}

func (d *refDiscrete) Inject(deltas []int64) error {
	if len(deltas) != len(d.x) {
		return fmt.Errorf("%w: %d deltas for %d nodes", ErrBadConfig, len(deltas), len(d.x))
	}
	for i, dv := range deltas {
		d.x[i] += dv
	}
	return nil
}

// refContinuous is the pre-refactor Continuous step path.
type refContinuous struct {
	op      *spectral.Operator
	kind    Kind
	beta    float64
	workers int
	alpha   []float64

	x          []float64
	next       []float64
	flows      []float64
	z          []float64
	flowsValid bool

	round        int
	minTransient float64
}

func newRefContinuous(cfg Config, initial []float64) (*refContinuous, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Op.Graph().NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	c := &refContinuous{
		op:           cfg.Op,
		kind:         cfg.Kind,
		beta:         cfg.Beta,
		workers:      cfg.Workers,
		alpha:        cfg.Op.Alphas(),
		x:            make([]float64, n),
		next:         make([]float64, n),
		z:            make([]float64, n),
		flows:        make([]float64, cfg.Op.Graph().NumArcs()),
		minTransient: math.Inf(1),
	}
	copy(c.x, initial)
	return c, nil
}

func (c *refContinuous) Step() {
	g := graphOf(c.op)
	sp := speedsOf(c.op)
	n := g.NumNodes()
	offsets, arcs := g.Offsets(), g.Arcs()
	alpha := c.alpha

	homog := sp.IsHomogeneous()
	if homog {
		copy(c.z, c.x)
	} else {
		refParallelFor(n, c.workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				c.z[i] = c.x[i] / sp.Of(i)
			}
		})
	}

	secondOrder := c.kind == SOS && c.flowsValid
	beta := c.beta
	sigma := beta - 1

	refParallelFor(n, c.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			zi := c.z[i]
			for a := offsets[i]; a < offsets[i+1]; a++ {
				grad := alpha[a] * (zi - c.z[arcs[a]])
				if secondOrder {
					c.flows[a] = sigma*c.flows[a] + beta*grad
				} else {
					c.flows[a] = grad
				}
			}
		}
	})

	chunks := refNumChunks(n, c.workers)
	minT := make([]float64, chunks)
	for i := range minT {
		minT[i] = math.Inf(1)
	}
	refParallelFor(n, c.workers, func(chunk, lo, hi int) {
		localMin := math.Inf(1)
		for i := lo; i < hi; i++ {
			var outSum, sentSum float64
			for a := offsets[i]; a < offsets[i+1]; a++ {
				f := c.flows[a]
				outSum += f
				if f > 0 {
					sentSum += f
				}
			}
			if tr := c.x[i] - sentSum; tr < localMin {
				localMin = tr
			}
			c.next[i] = c.x[i] - outSum
		}
		minT[chunk] = localMin
	})
	for ch := 0; ch < chunks; ch++ {
		if minT[ch] < c.minTransient {
			c.minTransient = minT[ch]
		}
	}

	c.x, c.next = c.next, c.x
	if c.kind == SOS {
		c.flowsValid = true
	}
	c.round++
}

func (c *refContinuous) SetKind(k Kind) {
	if k == c.kind {
		return
	}
	c.kind = k
	c.flowsValid = false
}

func (c *refContinuous) SetBeta(beta float64) error {
	if err := betaCheck(beta); err != nil {
		return err
	}
	c.beta = beta
	return nil
}

func (c *refContinuous) Retarget(op *spectral.Operator) error {
	if err := retargetCheck(op, len(c.x), len(c.flows)); err != nil {
		return err
	}
	c.op = op
	return op.AlphasInto(c.alpha)
}

func (c *refContinuous) Inject(deltas []int64) error {
	if len(deltas) != len(c.x) {
		return fmt.Errorf("%w: %d deltas for %d nodes", ErrBadConfig, len(deltas), len(c.x))
	}
	for i, dv := range deltas {
		c.x[i] += float64(dv)
	}
	return nil
}

// refCumulative is the pre-refactor CumulativeDiscrete step path.
type refCumulative struct {
	cont    *refContinuous
	workers int

	x        []int64
	sent     []int64
	cumFlows []float64
}

func newRefCumulative(cfg Config, initial []int64) (*refCumulative, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Op.Graph().NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	xf := make([]float64, n)
	for i, v := range initial {
		xf[i] = float64(v)
	}
	cont, err := newRefContinuous(cfg, xf)
	if err != nil {
		return nil, err
	}
	c := &refCumulative{
		cont:     cont,
		workers:  cfg.Workers,
		x:        make([]int64, n),
		sent:     make([]int64, cfg.Op.Graph().NumArcs()),
		cumFlows: make([]float64, cfg.Op.Graph().NumArcs()),
	}
	copy(c.x, initial)
	return c, nil
}

func (c *refCumulative) Step() {
	g := graphOf(c.cont.op)
	n := g.NumNodes()
	offsets := g.Offsets()

	c.cont.Step()
	contFlows := c.cont.flows

	refParallelFor(n, c.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var outSum int64
			for a := offsets[i]; a < offsets[i+1]; a++ {
				c.cumFlows[a] += contFlows[a]
				f := int64(math.RoundToEven(c.cumFlows[a])) - c.sent[a]
				c.sent[a] += f
				outSum += f
			}
			c.x[i] -= outSum
		}
	})
}

func (c *refCumulative) Retarget(op *spectral.Operator) error { return c.cont.Retarget(op) }

func (c *refCumulative) Inject(deltas []int64) error {
	if len(deltas) != len(c.x) {
		return fmt.Errorf("%w: %d deltas for %d nodes", ErrBadConfig, len(deltas), len(c.x))
	}
	if err := c.cont.Inject(deltas); err != nil {
		return err
	}
	for i, dv := range deltas {
		c.x[i] += dv
	}
	return nil
}

// refRandomizedRoundNode is RandomizedRounder.RoundNode as it stood before
// the engines drew straight from the shard PCG and reused the floor pass's
// fractional parts: rng.Float64 per candidate token, fractions recomputed
// in the cumulative scan.
func refRandomizedRoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	var r float64
	last := -1
	for k, v := range yhat {
		fl := math.Floor(v)
		out[k] = int64(fl)
		if f := v - fl; f > 0 {
			r += f
			last = k
		}
	}
	if r <= 0 {
		return
	}
	ceilR := math.Ceil(r)
	tokens := int(ceilR)
	for b := 0; b < tokens; b++ {
		u := rng.Float64() * ceilR
		if u >= r {
			continue
		}
		dst := last
		var cum float64
		for k := 0; k < last; k++ {
			v := yhat[k]
			cum += v - math.Floor(v)
			if u < cum {
				dst = k
				break
			}
		}
		out[dst]++
	}
}
