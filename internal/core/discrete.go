package core

import (
	"fmt"
	"math"

	"diffusionlb/internal/hetero"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
)

// Discrete is a discrete diffusion process: loads are atomic int64 tokens.
// Each round it computes the continuous scheduled flows
// Ŷ(t) = C(x_D(t), y_D(t−1)) from its own integer state (Definition 1) and
// rounds them per node with the configured Rounder.
//
// The process is stateless in the paper's sense: round t depends only on
// x_D(t) and the integer flows actually sent in round t−1.
//
// Discrete is the shared-memory transport of DiscreteState: it runs the
// state's three pass kernels — normalize, fused schedule+round, apply —
// over contiguous node shards with shard.Run. Per-shard scratch and
// reduction slots are combined in shard order, so a steady-state round
// allocates nothing and the results are bit-identical for every worker and
// shard count.
type Discrete struct {
	DiscreteState

	// Pass bodies bound once at construction: method values rebuilt per
	// Step would allocate.
	passZFn     func(s, lo, hi int)
	passRoundFn func(s, lo, hi int)
	passApplyFn func(s, lo, hi int)
}

var _ Process = (*Discrete)(nil)
var _ Sharded = (*Discrete)(nil)

// NewDiscrete builds a discrete process from cfg, a rounder (nil means the
// paper's RandomizedRounder), a master seed for the rounding streams, and
// the initial integer loads (copied).
func NewDiscrete(cfg Config, rounder Rounder, seed uint64, initial []int64) (*Discrete, error) {
	st, err := NewDiscreteState(cfg, rounder, seed, initial)
	if err != nil {
		return nil, err
	}
	d := &Discrete{DiscreteState: st}
	d.passZFn = d.PassZ
	d.passRoundFn = d.PassRound
	d.passApplyFn = d.PassApply
	return d, nil
}

// Step executes one synchronous discrete round.
//
//lbvet:hotpath runs every round; TestStepSteadyStateAllocFree pins 0 allocs
func (d *Discrete) Step() {
	for s := range d.sh {
		d.BeginRound(s, d.op, d.kind, d.beta, d.flowsValid)
	}
	d.lay.Run(d.workers, d.passZFn)
	d.lay.Run(d.workers, d.passRoundFn)
	d.lay.Run(d.workers, d.passApplyFn)
	d.EndRound()
}

// DiscreteState is the state and bookkeeping of a discrete diffusion
// process, and its per-round pass kernels. It is the one implementation
// behind both runtimes: Discrete runs the kernels over shards with
// shard.Run, and the message-passing actor runtime runs them per actor with
// boundary messages in between. Embedding it gives a runtime the loads,
// the SOS flow memory, the diagnostics counters, the accessors, the core
// Checkpoint/Restore and the Inject/SetBeta/Retarget validation.
//
// A round is BeginRound for every shard, then PassZ, PassRound and
// PassApply over every shard (each pass complete before the next starts
// reading another shard's output), then EndRound. The two runtimes differ
// only in where a remote head's normalized load comes from and how a cut
// arc's mate is credited; SetHalo selects the message-passing answer for a
// shard, and GatherZ, CutFlux and Credit are the hooks its transport uses.
//
// Flows are double buffered (16 B/arc): PassRound writes y_D(t) into
// flowsNext while the SOS recurrence still reads y_D(t−1) from flows, and
// EndRound promotes it.
type DiscreteState struct {
	//lint:allow checkpointsync operator state is replayed by the resuming driver, see Checkpoint.Retargets
	op      *spectral.Operator
	kind    Kind
	beta    float64
	workers int
	rounder Rounder
	seed    uint64
	lay     *shard.Layout
	// CSR views, fixed for the life of the process (Retarget requires the
	// same graph shape and the layout pins the graph identity).
	offsets, arcs, mate []int32

	x     []int64 // loads at the beginning of the current round
	flows []int64 // y_D of the last completed round, per arc: the SOS memory
	// flowsNext is y_D(t) being written by PassRound (and Credit).
	//lbvet:doublebuffer exact IEEE antisymmetry makes arc ownership unique: the owning node writes both directions of its arcs exactly once per round
	//lint:allow checkpointsync holds the stale previous buffer at round boundaries; EndRound promotes it into flows
	flowsNext []int64
	// scheduled is Ŷ(t) per arc, allocated and written only while
	// RecordScheduledFlows is on (nil otherwise).
	scheduled []float64 //lint:allow checkpointsync diagnostic record of the last round's Ŷ, rewritten by every Step while recording
	z         []float64 //lint:allow checkpointsync scratch x_i/s_i, recomputed by PassZ before any read
	// flowsValid mirrors Continuous: SOS memory validity.
	flowsValid bool

	round              int
	minTransient       int64
	minTransientSet    bool
	negTransientRounds int
	minEndOfRound      int64 // minimum end-of-round load ever observed
	minEndSet          bool
	tokensMoved        int64 // Σ over rounds of all positive flows
	edgeMessages       int64 // directed transfers (arcs with positive flow)
	injectedTokens     int64 // Σ of positive Inject deltas (arrivals)
	removedTokens      int64 // Σ of negative Inject deltas (departures)
	retargetCount      int   // number of Retarget calls (speed events)

	// sh is sized by the layout's shard count at construction so a round
	// never allocates.
	sh []shardSlot //lint:allow checkpointsync per-shard scratch, round parameters and reduction slots, rewritten by every round
}

// shardSlot is one shard's rounding scratch, round parameters,
// neighbour-z view and reduction slots.
type shardSlot struct {
	ShardRounder
	p roundParams

	// The neighbour-z view: a head j with j−vlo in [0, vn) is read from z,
	// any other head from halo[a−arcLo]. The shared-memory engine's view is
	// the whole graph, so its halo is never read.
	vlo, vn uint32
	arcLo   int
	halo    []float64

	// Reduction slots, folded in shard order by EndRound.
	minT, minE, moved, msgs int64
}

// roundParams are the inputs a round's kernels read besides the state,
// set by BeginRound.
type roundParams struct {
	sp          *hetero.Speeds
	homog       bool
	alpha       spectral.ArcAlphas
	second      bool
	beta, sigma float64
	seed        uint64 // randx.Mix2(seed, round)
}

// NewDiscreteState validates cfg and builds the state of a discrete
// process with a rounder (nil means the paper's RandomizedRounder), a
// master seed for the rounding streams and the initial integer loads
// (copied). The process runs on cfg.Layout when set, else on
// shard.ForWorkers(cfg.Op.Graph(), cfg.Workers).
func NewDiscreteState(cfg Config, rounder Rounder, seed uint64, initial []int64) (DiscreteState, error) {
	if err := cfg.validate(); err != nil {
		return DiscreteState{}, err
	}
	if rounder == nil {
		rounder = RandomizedRounder{}
	}
	g := cfg.Op.Graph()
	n := g.NumNodes()
	if len(initial) != n {
		return DiscreteState{}, fmt.Errorf("%w: %d initial loads for %d nodes", ErrBadConfig, len(initial), n)
	}
	maxDeg := g.MaxDegree()
	lay := layoutFor(cfg)
	st := DiscreteState{
		op:        cfg.Op,
		kind:      cfg.Kind,
		beta:      cfg.Beta,
		workers:   cfg.Workers,
		rounder:   rounder,
		seed:      seed,
		lay:       lay,
		offsets:   g.Offsets(),
		arcs:      g.Arcs(),
		mate:      g.MateIndex(),
		x:         make([]int64, n),
		flows:     make([]int64, g.NumArcs()),
		flowsNext: make([]int64, g.NumArcs()),
		z:         make([]float64, n),
		sh:        make([]shardSlot, lay.Shards()),
	}
	for s := range st.sh {
		st.sh[s] = shardSlot{ShardRounder: NewShardRounder(rounder, maxDeg), vn: uint32(n)}
	}
	copy(st.x, initial)
	return st, nil
}

// SetHalo makes shard s read the heads of its arcs that leave the shard
// from halo (indexed by arc position relative to the shard's first arc)
// instead of the shared normalized loads, and leave the mates of those arcs
// to the transport (see CutFlux and Credit). The actor runtime calls it
// once per actor at construction.
func (st *DiscreteState) SetHalo(s int, halo []float64) {
	lo, hi := st.lay.NodeRange(s)
	alo, _ := st.lay.ArcRange(s)
	sl := &st.sh[s]
	sl.vlo, sl.vn, sl.arcLo, sl.halo = uint32(lo), uint32(hi-lo), alo, halo
}

// BeginRound sets shard s's parameters for the coming round from a scheme
// view: the operator, the scheme order, β and whether the SOS memory is
// valid. The shared-memory engine passes its own state for every shard;
// an actor passes its control-plane mirror.
//
//lbvet:hotpath once per shard per round in both runtimes
func (st *DiscreteState) BeginRound(s int, op *spectral.Operator, kind Kind, beta float64, flowsValid bool) {
	sp := op.Speeds()
	st.sh[s].p = roundParams{
		sp:     sp,
		homog:  sp.IsHomogeneous(),
		alpha:  op.AlphaView(),
		second: kind == SOS && flowsValid,
		beta:   beta,
		sigma:  beta - 1,
		seed:   randx.Mix2(st.seed, uint64(st.round)),
	}
}

// PassZ fills the normalized loads z_i = x_i/s_i for one shard.
//
//lbvet:hotpath per-round kernel over every node
func (st *DiscreteState) PassZ(s, lo, hi int) {
	p := &st.sh[s].p
	if p.homog {
		for i := lo; i < hi; i++ {
			st.z[i] = float64(st.x[i])
		}
		return
	}
	sp := p.sp
	for i := lo; i < hi; i++ {
		st.z[i] = float64(st.x[i]) / sp.Of(i)
	}
}

// PassRound is the fused schedule+round kernel: for each node it computes
// the scheduled flows Ŷ of its arcs and immediately rounds them into the
// next flow buffer. Node i owns arc a=(i→j) iff Ŷ_a > 0, or Ŷ_a == 0 and
// i < j; the owner writes the integer flow to a and, when j is in the
// shard's view, to mate(a). Exact IEEE antisymmetry (Ŷ_mate = −Ŷ_a) makes
// ownership unique, so every arc of flowsNext is written exactly once per
// round with no cross-shard races. An arc whose head is outside the view
// is written by its tail only — the rounded flow, or 0 when the tail does
// not own it — and the transport credits its mate (CutFlux, Credit).
//
// The kernel also takes the shard's transient minimum and traffic counts
// from what each node sends, before any credit lands.
//
//lbvet:hotpath per-round fused kernel over every arc
func (st *DiscreteState) PassRound(s, lo, hi int) {
	offsets, arcs, mate := st.offsets, st.arcs, st.mate
	x, z, prev, next, sched := st.x, st.z, st.flows, st.flowsNext, st.scheduled
	record := sched != nil
	sl := &st.sh[s]
	alpha, second, sigma, beta, seed := sl.p.alpha, sl.p.second, sl.p.sigma, sl.p.beta, sl.p.seed
	vlo, vn, halo, arcLo := sl.vlo, sl.vn, sl.halo, sl.arcLo
	vals, out, arcIdx := sl.Vals, sl.Out, sl.Arcs
	localT := int64(math.MaxInt64)
	var localMoved, localMsgs int64
	for i := lo; i < hi; i++ {
		zi := z[i]
		cnt := 0
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := arcs[a]
			inView := uint32(j)-vlo < vn
			var zj float64
			if inView {
				zj = z[j]
			} else {
				zj = halo[int(a)-arcLo]
			}
			grad := alpha.At(int(a)) * (zi - zj)
			y := grad
			if second {
				y = sigma*float64(prev[a]) + beta*grad
			}
			if record {
				sched[a] = y
			}
			switch {
			case y > 0:
				vals[cnt] = y
				arcIdx[cnt] = a
				cnt++
			case !inView:
				next[a] = 0
			case y == 0 && int32(i) < j:
				next[a] = 0
				next[mate[a]] = 0
			}
		}
		var sent int64
		if cnt > 0 {
			sl.Round(seed, i, cnt)
			for k := 0; k < cnt; k++ {
				a := arcIdx[k]
				f := out[k]
				next[a] = f
				if uint32(arcs[a])-vlo < vn {
					next[mate[a]] = -f
				}
				if f > 0 {
					sent += f
					localMsgs++
				}
			}
		}
		localMoved += sent
		if tr := x[i] - sent; tr < localT {
			localT = tr
		}
	}
	sl.minT, sl.moved, sl.msgs = localT, localMoved, localMsgs
}

// PassApply applies the round's flows to one shard's loads and records the
// shard's end-of-round minimum in its reduction slot.
//
//lbvet:hotpath per-round kernel over every node and arc
func (st *DiscreteState) PassApply(s, lo, hi int) {
	offsets, flows, x := st.offsets, st.flowsNext, st.x
	localE := int64(math.MaxInt64)
	for i := lo; i < hi; i++ {
		var outSum int64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			outSum += flows[a]
		}
		nx := x[i] - outSum
		x[i] = nx
		if nx < localE {
			localE = nx
		}
	}
	st.sh[s].minE = localE
}

// EndRound folds the shards' reduction slots in shard order (bit-stable for
// every worker count), promotes the round's flows into the SOS memory and
// advances the round counter.
//
//lbvet:hotpath runs every round in both runtimes
func (st *DiscreteState) EndRound() {
	anyNeg := false
	for s := range st.sh {
		sl := &st.sh[s]
		st.tokensMoved += sl.moved
		st.edgeMessages += sl.msgs
		if !st.minTransientSet || sl.minT < st.minTransient {
			st.minTransient = sl.minT
			st.minTransientSet = true
		}
		if !st.minEndSet || sl.minE < st.minEndOfRound {
			st.minEndOfRound = sl.minE
			st.minEndSet = true
		}
		if sl.minT < 0 {
			anyNeg = true
		}
	}
	if anyNeg {
		st.negTransientRounds++
	}
	st.flows, st.flowsNext = st.flowsNext, st.flows
	if st.kind == SOS {
		st.flowsValid = true
	}
	st.round++
}

// GatherZ copies the normalized loads of nodes into dst: the payload of a
// boundary-load message. Call it after PassZ.
//
//lbvet:hotpath once per link per round in the actor runtime
func (st *DiscreteState) GatherZ(nodes []int32, dst []float64) {
	for k, i := range nodes {
		dst[k] = st.z[i]
	}
}

// CutFlux copies the flows this round's PassRound sent on arcs into dst
// and returns their sum: the payload of a flux message. Call it before any
// Credit on the same arcs.
//
//lbvet:hotpath once per link per round in the actor runtime
func (st *DiscreteState) CutFlux(arcs []int32, dst []int64) int64 {
	var tot int64
	for k, a := range arcs {
		f := st.flowsNext[a]
		dst[k] = f
		tot += f
	}
	return tot
}

// Credit books flux[k] tokens received over the mate of arcs[k] in this
// round: PassApply adds them to the tail's load, and the arc's SOS memory
// holds what it sent minus what it was credited. Credits come after the
// round's sent sums, so under staleness an arc may both send and be
// credited in one round and the transient minimum still counts only what
// was sent.
//
//lbvet:hotpath once per applied flux version per round in the actor runtime
func (st *DiscreteState) Credit(arcs []int32, flux []int64) {
	for k, a := range arcs {
		st.flowsNext[a] -= flux[k]
	}
}

// Round returns the number of completed rounds.
func (st *DiscreteState) Round() int { return st.round }

// Kind returns the current scheme order.
func (st *DiscreteState) Kind() Kind { return st.kind }

// SetKind switches the scheme for subsequent rounds; switching (back) to
// SOS restarts its memory with an FOS round.
func (st *DiscreteState) SetKind(k Kind) {
	if k == st.kind {
		return
	}
	st.kind = k
	st.flowsValid = false
}

// Operator returns the diffusion operator.
func (st *DiscreteState) Operator() *spectral.Operator { return st.op }

// ShardLayout implements Sharded.
func (st *DiscreteState) ShardLayout() *shard.Layout { return st.lay }

// StepWorkers implements Sharded.
func (st *DiscreteState) StepWorkers() int { return st.workers }

// Loads returns the current integer load vector.
func (st *DiscreteState) Loads() LoadView { return LoadView{Int: st.x} }

// LoadsInt returns the raw integer load slice (read-only view).
func (st *DiscreteState) LoadsInt() []int64 { return st.x }

// Flows returns the integer per-arc flows of the last completed round
// (read-only view; zero before the first round). Under a stale transport
// the two directions of an edge may disagree: each holds what its tail
// sent minus what it was credited.
func (st *DiscreteState) Flows() []int64 { return st.flows }

// RecordScheduledFlows turns recording of the per-arc scheduled flows Ŷ
// on or off. Recording costs an 8 B/arc array written every round, so it
// is off by default; the step results are the same either way. Turning it
// on allocates the array, which the next Step fills; turning it off frees
// it. Call it between rounds.
func (st *DiscreteState) RecordScheduledFlows(on bool) {
	switch {
	case on && st.scheduled == nil:
		st.scheduled = make([]float64, len(st.flows))
	case !on:
		st.scheduled = nil
	}
}

// ScheduledFlows returns the per-arc continuous scheduled flows Ŷ of the
// last completed round (read-only view), i.e. what the rounding saw. It is
// nil unless RecordScheduledFlows is on, and all zero until a Step has run
// with recording on.
func (st *DiscreteState) ScheduledFlows() []float64 { return st.scheduled }

// Rounder returns the rounding scheme in use.
func (st *DiscreteState) Rounder() Rounder { return st.rounder }

// Seed returns the master seed of the rounding streams.
func (st *DiscreteState) Seed() uint64 { return st.seed }

// MemoryFootprint returns the resident bytes of the process's own arrays
// (loads, both flow buffers, the recorded scheduled flows when on,
// normalized loads, per-shard scratch) — the engine share of the
// bytes/node the scale benchmarks report; graph and operator storage are
// accounted by their own MemoryFootprint methods.
func (st *DiscreteState) MemoryFootprint() int64 {
	bytes := int64(len(st.x))*8 + int64(len(st.flows)+len(st.flowsNext))*8 +
		int64(len(st.scheduled))*8 + int64(len(st.z))*8
	for s := range st.sh {
		bytes += st.sh[s].MemoryFootprint() + 4*8
	}
	return bytes
}

// MinTransient returns the smallest transient load x̆ observed so far
// (+Inf before the first round).
func (st *DiscreteState) MinTransient() float64 {
	if !st.minTransientSet {
		return math.Inf(1)
	}
	return float64(st.minTransient)
}

// MinTransientInt returns the exact integer minimum transient load and
// whether any round has completed.
func (st *DiscreteState) MinTransientInt() (int64, bool) {
	return st.minTransient, st.minTransientSet
}

// MinEndOfRound returns the smallest end-of-round load observed so far.
func (st *DiscreteState) MinEndOfRound() (int64, bool) { return st.minEndOfRound, st.minEndSet }

// NegativeTransientRounds counts rounds with a negative transient load.
func (st *DiscreteState) NegativeTransientRounds() int { return st.negTransientRounds }

// Checkpoint captures the process state needed to resume the run exactly:
// the current loads, the last round's integer flows (the SOS memory), and
// the round counter. Diagnostics counters (minima, traffic) are included
// so a resumed run reports the same aggregates.
type Checkpoint struct {
	Round              int
	Kind               Kind
	FlowsValid         bool
	Loads              []int64
	Flows              []int64
	MinTransient       int64
	MinTransientSet    bool
	NegTransientRounds int
	MinEndOfRound      int64
	MinEndSet          bool
	TokensMoved        int64
	EdgeMessages       int64
	InjectedTokens     int64
	RemovedTokens      int64
	// Retargets counts the operator changes applied before the snapshot, so
	// a resumed dynamic-environment run reports the same diagnostics. The
	// operator state itself is NOT captured: the resuming driver replays the
	// deterministic speed trajectory (or re-applies the effective speeds)
	// before continuing.
	Retargets int
	// Beta is the second-order parameter at the snapshot, so a run cut
	// after a β re-optimization resumes with the re-optimized value instead
	// of the constructor's. Restore ignores a zero value (checkpoints from
	// older snapshots), keeping the process's current β.
	Beta float64
}

// Checkpoint returns a deep copy of the resumable state. Combined with the
// counter-based rounding streams (seeded by round number), Restore yields
// a bit-identical continuation — long paper-scale runs can be split across
// process lifetimes.
func (st *DiscreteState) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Round:              st.round,
		Kind:               st.kind,
		FlowsValid:         st.flowsValid,
		Loads:              make([]int64, len(st.x)),
		Flows:              make([]int64, len(st.flows)),
		MinTransient:       st.minTransient,
		MinTransientSet:    st.minTransientSet,
		NegTransientRounds: st.negTransientRounds,
		MinEndOfRound:      st.minEndOfRound,
		MinEndSet:          st.minEndSet,
		TokensMoved:        st.tokensMoved,
		EdgeMessages:       st.edgeMessages,
		InjectedTokens:     st.injectedTokens,
		RemovedTokens:      st.removedTokens,
		Retargets:          st.retargetCount,
		Beta:               st.beta,
	}
	copy(cp.Loads, st.x)
	copy(cp.Flows, st.flows)
	return cp
}

// Restore replaces the process state with a checkpoint taken from a
// process over the same graph (and the same seed, for the continuation to
// be identical). A rejected checkpoint leaves the process untouched.
func (st *DiscreteState) Restore(cp Checkpoint) error {
	if len(cp.Loads) != len(st.x) || len(cp.Flows) != len(st.flows) {
		return fmt.Errorf("%w: checkpoint shape %d/%d does not match process %d/%d",
			ErrBadConfig, len(cp.Loads), len(cp.Flows), len(st.x), len(st.flows))
	}
	switch cp.Kind {
	case FOS, SOS:
	default:
		return fmt.Errorf("%w: checkpoint has invalid kind %d", ErrBadConfig, int(cp.Kind))
	}
	if cp.Beta != 0 {
		if err := betaCheck(cp.Beta); err != nil {
			return err
		}
		st.beta = cp.Beta
	}
	st.round = cp.Round
	st.kind = cp.Kind
	st.flowsValid = cp.FlowsValid
	copy(st.x, cp.Loads)
	copy(st.flows, cp.Flows)
	st.minTransient = cp.MinTransient
	st.minTransientSet = cp.MinTransientSet
	st.negTransientRounds = cp.NegTransientRounds
	st.minEndOfRound = cp.MinEndOfRound
	st.minEndSet = cp.MinEndSet
	st.tokensMoved = cp.TokensMoved
	st.edgeMessages = cp.EdgeMessages
	st.injectedTokens = cp.InjectedTokens
	st.removedTokens = cp.RemovedTokens
	st.retargetCount = cp.Retargets
	return nil
}

// Retarget implements Retargeter: it installs op (over the same graph
// shape) as the diffusion operator for subsequent rounds. The kernels read
// α through the operator's shard view every round, so no per-arc copying
// happens here — a speed event is O(1) on the engine side. Loads, flow
// memory, the round counter and the rounding streams are untouched — see
// the interface contract for why this keeps dynamic-environment runs
// checkpoint/restore safe.
//
//lbvet:hotpath speed events are O(1) on the engine side and may fire every round
func (st *DiscreteState) Retarget(op *spectral.Operator) error {
	if err := retargetCheck(op, len(st.x), len(st.flows)); err != nil {
		return err
	}
	st.op = op
	st.retargetCount++
	return nil
}

// Retargets returns the number of operator changes applied so far.
func (st *DiscreteState) Retargets() int { return st.retargetCount }

// Beta returns the current second-order parameter β.
func (st *DiscreteState) Beta() float64 { return st.beta }

// SetBeta implements BetaSetter: it installs β for subsequent rounds,
// leaving loads, flow memory, the round counter and the rounding streams
// untouched.
func (st *DiscreteState) SetBeta(beta float64) error {
	if err := betaCheck(beta); err != nil {
		return err
	}
	st.beta = beta
	return nil
}

// Inject implements Injector: it adds deltas to the loads between rounds
// (batch arrivals, hotspot bursts, departures). Injection is not a round —
// the SOS flow memory, round counter and rounding streams are untouched —
// so dynamic runs keep the engine's determinism and checkpoint guarantees.
// An injection that would overflow a load or a token counter is rejected
// with nothing applied (see CheckInject).
func (st *DiscreteState) Inject(deltas []int64) error {
	if err := st.BookInject(deltas); err != nil {
		return err
	}
	st.AddLoads(0, len(st.x), deltas)
	return nil
}

// BookInject validates an injection and books its token counters without
// touching the loads; the caller then applies the deltas with AddLoads
// (all at once, or range by range) before the next round.
func (st *DiscreteState) BookInject(deltas []int64) error {
	added, removed, err := CheckInject(st.x, deltas, st.injectedTokens, st.removedTokens)
	if err != nil {
		return err
	}
	st.injectedTokens, st.removedTokens = added, removed
	return nil
}

// AddLoads adds deltas[i] to the load of every node i in [lo, hi) — the
// load half of an injection that BookInject validated.
func (st *DiscreteState) AddLoads(lo, hi int, deltas []int64) {
	for i := lo; i < hi; i++ {
		st.x[i] += deltas[i]
	}
}

// Injected returns the cumulative externally injected token counts: added
// is the sum of positive Inject deltas, removed the magnitude of negative
// ones. TotalLoad() == initial total + added − removed at every round
// boundary (plus any in-flight load of a stale transport).
func (st *DiscreteState) Injected() (added, removed int64) {
	return st.injectedTokens, st.removedTokens
}

// Traffic returns the cumulative communication cost of the run so far:
// tokens is the total number of token transfers (each token crossing one
// edge counts once) and messages is the number of directed edge transfers
// (rounds × arcs that carried at least one token). The paper uses this
// cost to argue for diffusion over random-walk schemes (Section II).
func (st *DiscreteState) Traffic() (tokens, messages int64) {
	return st.tokensMoved, st.edgeMessages
}

// TotalLoad returns Σ x_i, which every step conserves exactly (up to the
// in-flight load of a stale transport).
func (st *DiscreteState) TotalLoad() int64 {
	return shard.SumInt64(st.lay, st.workers, st.x)
}
