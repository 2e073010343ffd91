package core

import (
	"math"
	"math/rand/v2"

	"diffusionlb/internal/randx"
)

// Rounder converts the positive scheduled flows of one node into integer
// token counts. The engines call RoundNode once per node per round (through
// ShardRounder, which runs RandomizedRounder's algorithm directly instead)
// with the compacted vector yhat of strictly positive scheduled flows
// Ŷ_ij(t) on the node's outgoing arcs; the implementation writes the
// integer flow for each entry into out (same length, pre-zeroed).
//
// Implementations must be stateless: all randomness comes from rng, which
// the engine derives deterministically from (seed, round, node).
type Rounder interface {
	// RoundNode rounds one node's outgoing flows. len(out) == len(yhat),
	// every yhat[k] > 0, out is zero-filled on entry.
	RoundNode(yhat []float64, out []int64, rng *rand.Rand)
	// Name identifies the scheme in reports.
	Name() string
	// Deterministic reports whether the rounder ignores rng.
	Deterministic() bool
}

// RandomizedRounder is the paper's randomized rounding scheme
// (Section III-B): floor every positive flow, collect the fractional excess
// r = Σ_j {Ŷ_ij}, draw ⌈r⌉ candidate tokens, and send each independently
// with probability r/⌈r⌉ to a neighbor chosen with probability {Ŷ_ij}/r
// (so a token reaches neighbor j with probability {Ŷ_ij}/⌈r⌉ and stays home
// otherwise). This realizes E[Z_ij] = {Ŷ_ij} (Observation 1) and the
// deviation bounds of Theorems 3, 4 and 9.
type RandomizedRounder struct{}

var _ Rounder = RandomizedRounder{}

// RoundNode implements Rounder. The discrete engines do not call it: they
// run the same algorithm through ShardRounder's PCG path.
func (RandomizedRounder) RoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	var buf [32]float64
	frac := buf[:]
	if len(yhat) > len(buf) {
		frac = make([]float64, len(yhat))
	}
	roundRandomized(yhat, frac[:len(yhat)], out, nil, rng)
}

// roundRandomized is the one implementation of RandomizedRounder. The
// floor pass writes each flow's fractional part into frac (which may alias
// yhat) for the cumulative scan to reuse. Each candidate token's uniform
// comes from pcg when it is non-nil, else from rng; both draw
// float64(bits<<11>>11)/2⁵³ from the next 64 source bits, so the two
// sources give identical results on identical streams.
//
//lbvet:hotpath once per node per round in both discrete engines
func roundRandomized(yhat, frac []float64, out []int64, pcg *rand.PCG, rng *rand.Rand) {
	var r float64
	last := -1 // index of the last arc with a positive fractional part
	for k, v := range yhat {
		fl := math.Floor(v)
		out[k] = int64(fl)
		f := v - fl
		frac[k] = f
		if f > 0 {
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
		// u ~ U[0, ⌈r⌉); u < r selects a destination by cumulative
		// fractional mass, u >= r keeps the token at the node.
		var u float64
		if pcg != nil {
			u = randx.Float64(pcg) * ceilR
		} else {
			u = rng.Float64() * ceilR
		}
		if u >= r {
			continue
		}
		// Re-accumulating the fractional parts can undershoot r in floating
		// point, so a draw with u < r must never fall off the end of the
		// cumulative scan: the last positive-fraction arc owns the whole
		// remainder [cum(last−1), r) — equivalent to clamping its cumulative
		// entry to r — so every selected token is sent, never dropped.
		dst := last
		var cum float64
		for k := 0; k < last; k++ {
			cum += frac[k]
			if u < cum {
				dst = k
				break
			}
		}
		out[dst]++
	}
}

// Name implements Rounder.
func (RandomizedRounder) Name() string { return "randomized" }

// Deterministic implements Rounder.
func (RandomizedRounder) Deterministic() bool { return false }

// FloorRounder always rounds the scheduled flow down ("always round down",
// the deterministic baseline discussed with [21]). It never creates
// additional outgoing tokens, so it is the most conservative scheme with
// respect to negative load, but it balances most slowly: flows below one
// token are never sent.
type FloorRounder struct{}

var _ Rounder = FloorRounder{}

// RoundNode implements Rounder.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (FloorRounder) RoundNode(yhat []float64, out []int64, _ *rand.Rand) {
	for k, v := range yhat {
		out[k] = int64(math.Floor(v))
	}
}

// Name implements Rounder.
func (FloorRounder) Name() string { return "floor" }

// Deterministic implements Rounder.
func (FloorRounder) Deterministic() bool { return true }

// NearestRounder rounds every scheduled flow to the nearest integer (ties
// away from zero) — an instance of the arbitrary floor/ceiling rounding
// analyzed in Theorem 8.
type NearestRounder struct{}

var _ Rounder = NearestRounder{}

// RoundNode implements Rounder.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (NearestRounder) RoundNode(yhat []float64, out []int64, _ *rand.Rand) {
	for k, v := range yhat {
		out[k] = int64(math.Round(v))
	}
}

// Name implements Rounder.
func (NearestRounder) Name() string { return "nearest" }

// Deterministic implements Rounder.
func (NearestRounder) Deterministic() bool { return true }

// BernoulliRounder rounds each flow up independently with probability equal
// to its fractional part (the per-edge randomized rounding of [15]). It has
// the same per-edge expectation as RandomizedRounder but no per-node
// coupling, so a node can round up on many edges simultaneously — the
// behavior that motivates the paper's excess-token construction because it
// can drive nodes negative.
type BernoulliRounder struct{}

var _ Rounder = BernoulliRounder{}

// RoundNode implements Rounder.
//
//lbvet:hotpath called once per node per round by the discrete pass
func (BernoulliRounder) RoundNode(yhat []float64, out []int64, rng *rand.Rand) {
	for k, v := range yhat {
		fl := math.Floor(v)
		out[k] = int64(fl)
		if rng.Float64() < v-fl {
			out[k]++
		}
	}
}

// Name implements Rounder.
func (BernoulliRounder) Name() string { return "bernoulli" }

// Deterministic implements Rounder.
func (BernoulliRounder) Deterministic() bool { return false }

// RounderByName returns the rounder registered under name
// (randomized | floor | nearest | bernoulli), or false.
func RounderByName(name string) (Rounder, bool) {
	switch name {
	case "randomized":
		return RandomizedRounder{}, true
	case "floor":
		return FloorRounder{}, true
	case "nearest":
		return NearestRounder{}, true
	case "bernoulli":
		return BernoulliRounder{}, true
	default:
		return nil, false
	}
}

// ShardRounder is one shard's rounding scratch and dispatch, shared by the
// shared-memory engine and the actor runtime. The kernel compacts a node's
// positive scheduled flows into Vals (with their arc indices in Arcs) and
// calls Round, which writes the integer flows into Out.
//
// Randomness comes from a PCG re-seeded per node from (seed, round, node),
// so streams stay deterministic for every shard count while no generator
// is allocated per node per round. The paper's RandomizedRounder draws
// straight from that PCG and keeps its fractional parts in Vals; every
// other rounder goes through RoundNode.
type ShardRounder struct {
	Vals []float64
	Out  []int64
	Arcs []int32

	rounder    Rounder
	randomized bool // rounder is RandomizedRounder: the devirtualized path
	needRNG    bool
	pcg        *rand.PCG
	rng        *rand.Rand
}

// NewShardRounder returns rounding scratch for nodes of up to maxDeg arcs.
func NewShardRounder(r Rounder, maxDeg int) ShardRounder {
	_, randomized := r.(RandomizedRounder)
	pcg := rand.NewPCG(0, 0)
	return ShardRounder{
		Vals:       make([]float64, maxDeg),
		Out:        make([]int64, maxDeg),
		Arcs:       make([]int32, maxDeg),
		rounder:    r,
		randomized: randomized,
		needRNG:    !r.Deterministic(),
		pcg:        pcg,
		rng:        rand.New(pcg),
	}
}

// Round rounds the first cnt compacted flows of node into Out[:cnt]. prefix
// is randx.Mix2(seed, round), hashed once per round.
//
//lbvet:hotpath once per node per round in both discrete engines
func (sr *ShardRounder) Round(prefix uint64, node, cnt int) {
	vals, out := sr.Vals[:cnt], sr.Out[:cnt]
	if sr.needRNG {
		sr.pcg.Seed(randx.PCGPair3Suffix(prefix, uint64(node)))
	}
	if sr.randomized {
		roundRandomized(vals, vals, out, sr.pcg, nil)
		return
	}
	for k := range out {
		out[k] = 0
	}
	sr.rounder.RoundNode(vals, out, sr.rng)
}

// MemoryFootprint returns the resident bytes of the scratch buffers.
func (sr *ShardRounder) MemoryFootprint() int64 {
	return int64(len(sr.Vals))*8 + int64(len(sr.Out))*8 + int64(len(sr.Arcs))*4
}
