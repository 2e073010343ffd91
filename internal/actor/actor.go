// Package actor is the message-passing shard-actor runtime: each shard of
// a shard.Layout partition becomes an actor that owns its contiguous node
// and arc ranges, and neighboring actors exchange per-round boundary
// messages over channels instead of reading each other's memory — the
// architectural step from the lockstep shared-memory simulator toward the
// paper's distributed setting, where nodes exchange load over edges
// (ICDCS'15, Section II).
//
// Per logical round every actor runs the same three phases as the fused
// shared-memory kernels, but with explicit communication at the two points
// where the lockstep engine reads across shard boundaries:
//
//  1. normalize its own loads z_i = x_i/s_i, then send one zMsg per
//     outgoing link (the boundary z values its neighbors' gradients need)
//     and receive one per incoming link into a version ring;
//  2. compute and round its own scheduled flows Ŷ, reading remote heads
//     from the halo selected out of the ring, then send one fluxMsg per
//     outgoing link (the integer flows on the cut arcs) and receive and
//     credit incoming flux;
//  3. apply: debit sent tokens, credit received tokens, record the
//     transient/end-of-round minima and traffic counts in its reduction
//     slot.
//
// Sender-decides semantics: each node rounds only its positive scheduled
// flows (the same compaction, the same per-(seed, round, node) PCG streams
// as the shared-memory engine) and the receiver credits tokens on receipt.
// Exact IEEE antisymmetry of the scheduled flows makes arc ownership
// unique in barrier mode, so the runtime is bit-identical to core.Discrete
// for every actor count — pinned against the golden dynamics timeline by
// the equivalence tests.
//
// Modes. With Options.Stale == 0 (barrier) every message is consumed in
// the round it was produced: a logical round barrier, bit-identical to the
// fused shard.Run kernels. With Stale == S > 0 (bounded staleness) each
// link draws a deterministic lag L ∈ {0..S} per round from the master seed
// (randx.Mix — a seeded counter stream, never wall-clock races), and the
// receiving actor uses z version t−L and applies flux through version t−L:
// an actor effectively runs up to S rounds ahead of its slowest neighbor,
// applying the freshest boundary state it has. Tokens debited from a
// sender but not yet credited are the runtime's in-flight load
// (InFlightLoad); Σ loads + in-flight is conserved every round, and the
// in-flight load is zero at every quiescence point in barrier mode.
//
// Control plane. Workload injection, speed events (Retarget), β
// re-optimization and scheme switches are broadcast to every actor's
// mailbox and drained concurrently between rounds, so all state mutation
// routes through the runtime's own fan-out — the message-passing analogue
// of the shared-memory engines' direct mutation, with identical
// between-rounds semantics (not a round: flow memory, round counter and
// rounding streams untouched).
package actor

import (
	"fmt"
	"math"
	"sync"

	"diffusionlb/internal/core"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/shard"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
)

// lagSalt separates the staleness schedule's hash stream from every other
// consumer of the master seed (rounding seeds PCG streams with
// PCGPair3(seed, round, node); the lag draws mix in this salt).
const lagSalt = 0x6163746f724c6167 // "actorLag"

// Runtime is a message-passing discrete diffusion process (see the package
// comment). It implements core.Process, Injector, Retargeter, BetaSetter,
// Sharded and InFlightReporter, so the sim.Runner drives it exactly like
// the shared-memory engines.
type Runtime struct {
	//lint:allow checkpointsync operator state is replayed by the resuming driver, see core.Checkpoint.Retargets
	op      *spectral.Operator
	kind    core.Kind
	beta    float64
	rounder core.Rounder
	seed    uint64
	stale   int
	lay     *shard.Layout
	// CSR views, fixed for the life of the runtime.
	offsets, arcs, mate []int32

	x []int64 // loads at the beginning of the current round
	// netFlow is y_D of the last completed round from each arc owner's
	// local view — the SOS memory. In barrier mode it equals the
	// shared-memory engine's flows array exactly; under staleness the two
	// directions of an edge may disagree (each owner knows what it sent
	// and what it has been credited, which is the distributed semantics).
	netFlow []int64
	flowOut []int64 // per-arc tokens sent this round; zero at round boundaries
	flowIn  []int64 // per-arc tokens credited this round; zero at round boundaries
	// scheduled is Ŷ(t) per arc, allocated and written only while
	// RecordScheduledFlows is on (nil otherwise).
	scheduled  []float64 //lint:allow checkpointsync diagnostic record of the last round's Ŷ, rewritten by every Step while recording
	z          []float64 // scratch x_i/s_i, recomputed every round
	flowsValid bool

	round              int
	minTransient       int64
	minTransientSet    bool
	negTransientRounds int
	minEndOfRound      int64
	minEndSet          bool
	tokensMoved        int64
	edgeMessages       int64
	injectedTokens     int64
	removedTokens      int64
	retargetCount      int

	//lint:allow checkpointsync per-actor mirrors are reset by Restore; mailboxes are empty at every round boundary
	act   []actorState
	links []*link

	// Per-actor reduction slots, combined in actor order by Step.
	minT []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	minE []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	movd []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step
	msgs []int64 //lint:allow checkpointsync per-round reduction slot, overwritten by every Step

	// Bodies bound once at construction so Step and broadcast do not
	// rebuild closures.
	stepFn  func(a int)
	drainFn func(a int)

	// tel, when attached, receives per-actor round latencies, boundary
	// message counts with realized lags, and the in-flight load gauge.
	// Write-only: nothing the runtime computes ever depends on it, so
	// trajectories are bit-identical with or without a probe (pinned by
	// the differential determinism tests).
	//lint:allow checkpointsync observability sink, deliberately outside checkpoint state
	tel *telemetry.ActorProbe
}

var (
	_ core.Process          = (*Runtime)(nil)
	_ core.Injector         = (*Runtime)(nil)
	_ core.Retargeter       = (*Runtime)(nil)
	_ core.BetaSetter       = (*Runtime)(nil)
	_ core.Sharded          = (*Runtime)(nil)
	_ core.InFlightReporter = (*Runtime)(nil)
)

// New builds an actor runtime over op's graph with the given scheme,
// rounder (nil means the paper's RandomizedRounder), master seed for the
// rounding and staleness streams, and initial integer loads (copied).
// opts.Actors fixes the shard partition — unlike the shared-memory
// engines, the partition is the deployment topology here, so it is
// explicit rather than derived from a worker count.
func New(op *spectral.Operator, kind core.Kind, beta float64, rounder core.Rounder, seed uint64, initial []int64, opts Options) (*Runtime, error) {
	if op == nil {
		return nil, fmt.Errorf("%w: nil operator", core.ErrBadConfig)
	}
	switch kind {
	case core.FOS:
	case core.SOS:
		if beta <= 0 || beta >= 2 {
			return nil, fmt.Errorf("%w: SOS needs beta in (0,2), got %g", core.ErrBadConfig, beta)
		}
	default:
		return nil, fmt.Errorf("%w: unknown scheme kind %d", core.ErrBadConfig, int(kind))
	}
	if opts.Actors < 1 {
		return nil, fmt.Errorf("%w: actor runtime needs at least 1 actor, got %d", core.ErrBadConfig, opts.Actors)
	}
	if opts.Stale < 0 {
		return nil, fmt.Errorf("%w: negative staleness bound %d", core.ErrBadConfig, opts.Stale)
	}
	if rounder == nil {
		rounder = core.RandomizedRounder{}
	}
	g := op.Graph()
	n := g.NumNodes()
	if len(initial) != n {
		return nil, fmt.Errorf("%w: %d initial loads for %d nodes", core.ErrBadConfig, len(initial), n)
	}
	lay, err := shard.NewLayout(g, opts.Actors)
	if err != nil {
		return nil, err
	}
	k := lay.Shards()
	r := &Runtime{
		op:      op,
		kind:    kind,
		beta:    beta,
		rounder: rounder,
		seed:    seed,
		stale:   opts.Stale,
		lay:     lay,
		offsets: g.Offsets(),
		arcs:    g.Arcs(),
		mate:    g.MateIndex(),
		x:       make([]int64, n),
		netFlow: make([]int64, g.NumArcs()),
		flowOut: make([]int64, g.NumArcs()),
		flowIn:  make([]int64, g.NumArcs()),
		z:       make([]float64, n),
		minT:    make([]int64, k),
		minE:    make([]int64, k),
		movd:    make([]int64, k),
		msgs:    make([]int64, k),
	}
	buildTopology(r)
	copy(r.x, initial)
	r.stepFn = func(a int) { r.act[a].step() }
	r.drainFn = func(a int) { r.act[a].drainCtl() }
	return r, nil
}

// Run executes body(a) for every actor concurrently — the runtime's only
// goroutine fan-out point, blessed by the goroutineleak analyzer alongside
// shard.Run. Unlike shard.Run's capped work stealing, every actor MUST get
// its own goroutine: the step protocol's blocking channel receives
// synchronize neighbors against each other, so all actors have to be live
// within a round (the Go scheduler multiplexes them onto however many
// cores exist — GOMAXPROCS changes scheduling, never results). A single
// actor runs inline with no goroutines and no channels.
func (r *Runtime) Run(body func(a int)) {
	k := len(r.act)
	if k == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		go func(a int) {
			defer wg.Done()
			body(a)
		}(i)
	}
	wg.Wait()
}

// step runs one logical round of this actor; see the package comment for
// the phase structure. Sends always precede receives, so with every actor
// live the channel protocol cannot deadlock, and each capacity-1 channel
// carries exactly one message of each type per round.
func (a *actorState) step() {
	r := a.r
	t := r.round
	span := r.stale + 1
	sw := r.tel.StartActorRound(a.id)
	a.phaseZ()
	for _, l := range a.out {
		for k, i := range l.sendNodes {
			l.zBuf[k] = r.z[i]
		}
		l.zCh <- zMsg{round: t, z: l.zBuf}
	}
	for li, l := range a.in {
		m := <-l.zCh
		if m.round != t {
			panic(fmt.Sprintf("actor: z message for round %d received in round %d on link %d->%d", m.round, t, l.src, l.dst))
		}
		copy(l.zRing[t%span], m.z)
		a.lag[li] = a.lagOf(l, t)
	}
	a.fillHalo(t)
	a.phaseRound(t)
	for _, l := range a.out {
		var tot int64
		for k, arc := range l.cutArcs {
			f := r.flowOut[arc]
			l.fBuf[k] = f
			tot += f
		}
		l.sentTotal += tot
		l.fCh <- fluxMsg{round: t, flux: l.fBuf, total: tot}
		r.tel.LinkSent(t, l.src, l.dst)
	}
	for li, l := range a.in {
		m := <-l.fCh
		if m.round != t {
			panic(fmt.Sprintf("actor: flux message for round %d received in round %d on link %d->%d", m.round, t, l.src, l.dst))
		}
		copy(l.fRing[t%span], m.flux)
		l.fRingSum[t%span] = m.total
		thru := t - a.lag[li]
		for v := l.applied + 1; v <= thru; v++ {
			row := l.fRing[v%span]
			for k, ra := range l.recvArcs {
				r.flowIn[ra] += row[k]
			}
			l.appliedTotal += l.fRingSum[v%span]
		}
		if thru > l.applied {
			l.applied = thru
		}
		r.tel.LinkReceived(t, l.dst, l.src, a.lag[li])
	}
	a.phaseApply()
	sw.Stop()
}

// lagOf draws the link's staleness lag for round t: a deterministic
// function of (seed, link, round), so async interleavings replay exactly —
// staleness is data the schedule selects, never a wall-clock race. Barrier
// mode always returns 0; early rounds clamp the lag so version t−lag ≥ 0.
func (a *actorState) lagOf(l *link, t int) int {
	stale := a.r.stale
	if stale == 0 {
		return 0
	}
	lag := int(randx.Mix(a.r.seed, lagSalt, uint64(l.src), uint64(l.dst), uint64(t)) % uint64(stale+1))
	if lag > t {
		lag = t
	}
	return lag
}

// phaseZ fills the normalized loads z_i = x_i/s_i for the actor's nodes.
//
//lbvet:hotpath per-round kernel over every owned node
func (a *actorState) phaseZ() {
	r := a.r
	sp := a.op.Speeds()
	if sp.IsHomogeneous() {
		for i := a.lo; i < a.hi; i++ {
			r.z[i] = float64(r.x[i])
		}
		return
	}
	for i := a.lo; i < a.hi; i++ {
		r.z[i] = float64(r.x[i]) / sp.Of(i)
	}
}

// fillHalo copies the selected z version of every incoming link into the
// per-arc halo, so the gradient kernel reads remote heads from a dense
// arc-indexed array.
//
//lbvet:hotpath per-round kernel over every cut arc
func (a *actorState) fillHalo(t int) {
	span := a.r.stale + 1
	for li, l := range a.in {
		v := t - a.lag[li]
		row := l.zRing[v%span]
		for k, ra := range l.recvArcs {
			a.haloZ[int(ra)-a.arcLo] = row[l.slot[k]]
		}
	}
}

// phaseRound is the fused schedule+round kernel, structured exactly like
// the shared-memory engine's: per node it computes the scheduled flows Ŷ
// of its arcs (remote heads via the halo), compacts the positive ones and
// rounds them with the per-(seed, round, node) PCG stream. Sender-decides:
// only the positive direction is rounded; the mate arc of an internal edge
// is credited directly, the mate of a cut arc is credited by the receiving
// actor when the flux message is applied.
//
//lbvet:hotpath per-round fused kernel over every owned arc
func (a *actorState) phaseRound(t int) {
	r := a.r
	offsets, arcs, mate := r.offsets, r.arcs, r.mate
	alpha := a.op.AlphaView()
	prev, sched := r.netFlow, r.scheduled
	record := sched != nil
	second := a.kind == core.SOS && a.flowsValid
	beta := a.beta
	sigma := beta - 1
	seed := randx.Mix2(r.seed, uint64(t))
	sr := &a.sr
	vals, out, arcIdx := sr.Vals, sr.Out, sr.Arcs
	lo, hi, arcLo := a.lo, a.hi, a.arcLo
	for i := lo; i < hi; i++ {
		zi := r.z[i]
		cnt := 0
		for arc := int(offsets[i]); arc < int(offsets[i+1]); arc++ {
			j := int(arcs[arc])
			var zj float64
			if j >= lo && j < hi {
				zj = r.z[j]
			} else {
				zj = a.haloZ[arc-arcLo]
			}
			grad := alpha.At(arc) * (zi - zj)
			y := grad
			if second {
				y = sigma*float64(prev[arc]) + beta*grad
			}
			if record {
				sched[arc] = y
			}
			if y > 0 {
				vals[cnt] = y
				arcIdx[cnt] = int32(arc)
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		sr.Round(seed, i, cnt)
		for k := 0; k < cnt; k++ {
			arc := int(arcIdx[k])
			f := out[k]
			r.flowOut[arc] = f
			if j := int(arcs[arc]); j >= lo && j < hi {
				r.flowIn[mate[arc]] += f
			}
		}
	}
}

// phaseApply settles the round for the actor's nodes: debit sent tokens,
// credit received tokens, fold the per-arc net flows into the SOS memory,
// clear the per-round flow scratch and record the shard's minima and
// traffic counts in its reduction slot.
//
//lbvet:hotpath per-round kernel over every owned node and arc
func (a *actorState) phaseApply() {
	r := a.r
	offsets := r.offsets
	localT, localE := int64(math.MaxInt64), int64(math.MaxInt64)
	var localMoved, localMsgs int64
	for i := a.lo; i < a.hi; i++ {
		var sentSum, inSum int64
		for arc := int(offsets[i]); arc < int(offsets[i+1]); arc++ {
			f := r.flowOut[arc]
			if f > 0 {
				sentSum += f
				localMsgs++
			}
			in := r.flowIn[arc]
			inSum += in
			r.netFlow[arc] = f - in
			r.flowOut[arc] = 0
			r.flowIn[arc] = 0
		}
		localMoved += sentSum
		if tr := r.x[i] - sentSum; tr < localT {
			localT = tr
		}
		nx := r.x[i] - sentSum + inSum
		r.x[i] = nx
		if nx < localE {
			localE = nx
		}
	}
	r.minT[a.id] = localT
	r.minE[a.id] = localE
	r.movd[a.id] = localMoved
	r.msgs[a.id] = localMsgs
	if a.kind == core.SOS {
		a.flowsValid = true
	}
}

// drainCtl applies the actor's pending control messages, each restricted
// to the actor's own node range and parameter mirrors.
func (a *actorState) drainCtl() {
	for _, m := range a.ctl {
		switch m.op {
		case ctlInject:
			for i := a.lo; i < a.hi; i++ {
				a.r.x[i] += m.deltas[i]
			}
		case ctlRetarget:
			a.op = m.newOp
		case ctlSetBeta:
			a.beta = m.beta
		case ctlSetKind:
			if m.kind != a.kind {
				a.kind = m.kind
				a.flowsValid = false
			}
		}
	}
	a.ctl = a.ctl[:0]
}

// Step executes one synchronous logical round: all actors run their round
// concurrently, synchronized against each other purely by the link
// channels, then the driver folds the per-actor reduction slots in actor
// order (bit-stable for every GOMAXPROCS).
func (r *Runtime) Step() {
	r.Run(r.stepFn)
	anyNeg := false
	for s := range r.act {
		r.tokensMoved += r.movd[s]
		r.edgeMessages += r.msgs[s]
		if !r.minTransientSet || r.minT[s] < r.minTransient {
			r.minTransient = r.minT[s]
			r.minTransientSet = true
		}
		if !r.minEndSet || r.minE[s] < r.minEndOfRound {
			r.minEndOfRound = r.minE[s]
			r.minEndSet = true
		}
		if r.minT[s] < 0 {
			anyNeg = true
		}
	}
	if anyNeg {
		r.negTransientRounds++
	}
	if r.kind == core.SOS {
		r.flowsValid = true
	}
	r.round++
	if r.tel != nil {
		r.tel.SetInFlight(float64(r.InFlightLoad()))
	}
}

// SetTelemetry attaches (or with nil detaches) an actor probe. The probe
// is write-only observability state: it never influences the trajectory,
// so it is deliberately outside checkpoint state and may be attached or
// swapped at any round boundary.
func (r *Runtime) SetTelemetry(p *telemetry.ActorProbe) { r.tel = p }

// broadcast appends m to every actor's mailbox and has the actors drain
// concurrently — the control-plane fan-out every mutation routes through.
func (r *Runtime) broadcast(m ctlMsg) {
	for i := range r.act {
		r.act[i].ctl = append(r.act[i].ctl, m)
	}
	r.Run(r.drainFn)
}

// Inject implements core.Injector: the deltas are broadcast and each actor
// applies its own node range. Not a round — flow memory, round counter and
// rounding streams untouched. An injection that would overflow a load or a
// token counter is rejected before the broadcast, with nothing applied
// (see core.CheckInject).
func (r *Runtime) Inject(deltas []int64) error {
	added, removed, err := core.CheckInject(r.x, deltas, r.injectedTokens, r.removedTokens)
	if err != nil {
		return err
	}
	r.broadcast(ctlMsg{op: ctlInject, deltas: deltas})
	r.injectedTokens, r.removedTokens = added, removed
	return nil
}

// Retarget implements core.Retargeter: a speed event is broadcast as a
// control message installing op on every actor.
func (r *Runtime) Retarget(op *spectral.Operator) error {
	if op == nil {
		return fmt.Errorf("%w: Retarget: nil operator", core.ErrBadConfig)
	}
	if !op.ShapeMatches(len(r.x), len(r.netFlow)) {
		return fmt.Errorf("%w: Retarget: operator shape %d nodes/%d arcs does not match process %d/%d",
			core.ErrBadConfig, op.Graph().NumNodes(), op.Graph().NumArcs(), len(r.x), len(r.netFlow))
	}
	r.broadcast(ctlMsg{op: ctlRetarget, newOp: op})
	r.op = op
	r.retargetCount++
	return nil
}

// SetBeta implements core.BetaSetter via a control broadcast.
func (r *Runtime) SetBeta(beta float64) error {
	if beta <= 0 || beta >= 2 {
		return fmt.Errorf("%w: SetBeta needs beta in (0,2), got %g", core.ErrBadConfig, beta)
	}
	r.broadcast(ctlMsg{op: ctlSetBeta, beta: beta})
	r.beta = beta
	return nil
}

// SetKind switches the scheme for subsequent rounds via a control
// broadcast; switching (back) to SOS restarts its memory with an FOS round.
func (r *Runtime) SetKind(k core.Kind) {
	if k == r.kind {
		return
	}
	r.broadcast(ctlMsg{op: ctlSetKind, kind: k})
	r.kind = k
	r.flowsValid = false
}

// InFlightLoad implements core.InFlightReporter: tokens debited from
// senders but not yet credited by receivers, summed over links in
// construction order. Zero at every round boundary in barrier mode;
// bounded by the staleness window otherwise. Σ Loads + InFlightLoad is
// conserved at every round boundary.
func (r *Runtime) InFlightLoad() int64 {
	var inFlight int64
	for _, l := range r.links {
		inFlight += l.sentTotal - l.appliedTotal
	}
	return inFlight
}

// Round returns the number of completed logical rounds.
func (r *Runtime) Round() int { return r.round }

// Kind returns the current scheme order.
func (r *Runtime) Kind() core.Kind { return r.kind }

// Operator returns the diffusion operator.
func (r *Runtime) Operator() *spectral.Operator { return r.op }

// Beta returns the current second-order parameter β.
func (r *Runtime) Beta() float64 { return r.beta }

// Retargets returns the number of operator changes applied so far.
func (r *Runtime) Retargets() int { return r.retargetCount }

// ShardLayout implements core.Sharded.
func (r *Runtime) ShardLayout() *shard.Layout { return r.lay }

// StepWorkers implements core.Sharded: the actor count is the runtime's
// concurrency.
func (r *Runtime) StepWorkers() int { return len(r.act) }

// Actors returns the actor count (== ShardLayout().Shards()).
func (r *Runtime) Actors() int { return len(r.act) }

// Stale returns the staleness bound S (0 means barrier mode).
func (r *Runtime) Stale() int { return r.stale }

// Options returns the runtime's options in canonical form.
func (r *Runtime) Options() Options { return Options{Actors: len(r.act), Stale: r.stale} }

// Loads returns the current integer load vector.
func (r *Runtime) Loads() core.LoadView { return core.LoadView{Int: r.x} }

// LoadsInt returns the raw integer load slice (read-only view).
func (r *Runtime) LoadsInt() []int64 { return r.x }

// Flows returns the per-arc net flows of the last completed round from
// each arc owner's view (read-only; in barrier mode identical to
// core.Discrete's Flows).
func (r *Runtime) Flows() []int64 { return r.netFlow }

// RecordScheduledFlows turns recording of the per-arc scheduled flows Ŷ
// on or off, as core.Discrete.RecordScheduledFlows does: off by default,
// the same step results either way. Call it between rounds.
func (r *Runtime) RecordScheduledFlows(on bool) {
	switch {
	case on && r.scheduled == nil:
		r.scheduled = make([]float64, len(r.netFlow))
	case !on:
		r.scheduled = nil
	}
}

// ScheduledFlows returns the per-arc continuous scheduled flows Ŷ of the
// last completed round (read-only view), i.e. what the rounding saw. It is
// nil unless RecordScheduledFlows is on.
func (r *Runtime) ScheduledFlows() []float64 { return r.scheduled }

// Rounder returns the rounding scheme in use.
func (r *Runtime) Rounder() core.Rounder { return r.rounder }

// Seed returns the master seed of the rounding and staleness streams.
func (r *Runtime) Seed() uint64 { return r.seed }

// MinTransient returns the smallest transient load x̆ observed so far
// (+Inf before the first round).
func (r *Runtime) MinTransient() float64 {
	if !r.minTransientSet {
		return math.Inf(1)
	}
	return float64(r.minTransient)
}

// MinTransientInt returns the exact integer minimum transient load and
// whether any round has completed.
func (r *Runtime) MinTransientInt() (int64, bool) { return r.minTransient, r.minTransientSet }

// MinEndOfRound returns the smallest end-of-round load observed so far.
func (r *Runtime) MinEndOfRound() (int64, bool) { return r.minEndOfRound, r.minEndSet }

// NegativeTransientRounds counts rounds with a negative transient load.
func (r *Runtime) NegativeTransientRounds() int { return r.negTransientRounds }

// Injected returns the cumulative externally injected token counts.
func (r *Runtime) Injected() (added, removed int64) {
	return r.injectedTokens, r.removedTokens
}

// Traffic returns the cumulative token transfers and directed edge
// messages, matching the shared-memory engine's accounting bit-for-bit in
// barrier mode.
func (r *Runtime) Traffic() (tokens, messages int64) {
	return r.tokensMoved, r.edgeMessages
}

// TotalLoad returns Σ x_i — conserved by every step up to in-flight flux
// (see InFlightLoad).
func (r *Runtime) TotalLoad() int64 {
	return shard.SumInt64(r.lay, len(r.act), r.x)
}

// MemoryFootprint returns the resident bytes of the runtime's own arrays:
// global per-node/per-arc state, per-actor scratch and halos, and per-link
// buffers and version rings — the price of the message-passing transport
// relative to the shared-memory engine.
func (r *Runtime) MemoryFootprint() int64 {
	bytes := int64(len(r.x))*8 + int64(len(r.netFlow)+len(r.flowOut)+len(r.flowIn))*8 +
		int64(len(r.scheduled))*8 + int64(len(r.z))*8
	for s := range r.act {
		a := &r.act[s]
		bytes += int64(len(a.haloZ))*8 + a.sr.MemoryFootprint() + int64(len(a.lag))*8
	}
	for _, l := range r.links {
		bytes += int64(len(l.sendNodes)+len(l.cutArcs)+len(l.recvArcs)+len(l.slot)) * 4
		bytes += int64(len(l.zBuf))*8 + int64(len(l.fBuf))*8 + int64(len(l.fRingSum))*8
		for v := range l.zRing {
			bytes += int64(len(l.zRing[v]))*8 + int64(len(l.fRing[v]))*8
		}
	}
	bytes += int64(len(r.minT)+len(r.minE)+len(r.movd)+len(r.msgs)) * 8
	return bytes
}
