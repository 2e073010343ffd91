// Package actor is the message-passing shard-actor runtime: each shard of
// a shard.Layout partition becomes an actor that owns its contiguous node
// and arc ranges, and neighboring actors exchange per-round boundary
// messages over channels instead of reading each other's memory — the
// architectural step from the lockstep shared-memory simulator toward the
// paper's distributed setting, where nodes exchange load over edges
// (ICDCS'15, Section II).
//
// Per logical round every actor runs the shared-memory engine's own pass
// kernels (core.DiscreteState's PassZ, PassRound and PassApply) on its
// shard, with explicit communication at the two points where the lockstep
// engine reads across shard boundaries:
//
//  1. PassZ normalizes its own loads z_i = x_i/s_i; it then sends one zMsg
//     per outgoing link (the boundary z values its neighbors' gradients
//     need), receives one per incoming link into a version ring and copies
//     the selected version into its halo;
//  2. PassRound computes and rounds its own scheduled flows Ŷ into the
//     shared flow buffer, reading remote heads from the halo and leaving
//     the mate of a cut arc alone; it then sends one fluxMsg per outgoing
//     link (the integer flows the kernel wrote on the cut arcs) and credits
//     incoming flux onto the arcs it arrived over;
//  3. PassApply settles the flows — what was sent, minus what was credited
//     — into the loads and records the end-of-round minimum in the actor's
//     reduction slot (the transient minimum and traffic counts come from
//     PassRound, before any credit lands).
//
// The driver then folds the reduction slots in actor order and promotes the
// round's flows into the SOS memory (core.DiscreteState.EndRound).
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
// comment). It embeds core.DiscreteState — the loads, flow memory,
// diagnostics, accessors and pass kernels core.Discrete runs too — and adds
// the transport: links, version rings, lag draws, halos and the control
// plane. It implements core.Process, Injector, Retargeter, BetaSetter,
// Sharded and InFlightReporter, so the sim.Runner drives it exactly like
// the shared-memory engines.
type Runtime struct {
	core.DiscreteState

	stale int

	//lint:allow checkpointsync per-actor mirrors are reset by Restore; mailboxes are empty at every round boundary
	act   []actorState
	links []*link

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
	if opts.Actors < 1 {
		return nil, fmt.Errorf("%w: actor runtime needs at least 1 actor, got %d", core.ErrBadConfig, opts.Actors)
	}
	if opts.Stale < 0 {
		return nil, fmt.Errorf("%w: negative staleness bound %d", core.ErrBadConfig, opts.Stale)
	}
	lay, err := shard.NewLayout(op.Graph(), opts.Actors)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Op: op, Kind: kind, Beta: beta, Workers: opts.Actors, Layout: lay}
	st, err := core.NewDiscreteState(cfg, rounder, seed, initial)
	if err != nil {
		return nil, err
	}
	r := &Runtime{DiscreteState: st, stale: opts.Stale}
	buildTopology(r)
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
	t := r.Round()
	span := r.stale + 1
	sw := r.tel.StartActorRound(a.id)
	r.BeginRound(a.id, a.op, a.kind, a.beta, a.flowsValid)
	r.PassZ(a.id, a.lo, a.hi)
	for _, l := range a.out {
		r.GatherZ(l.sendNodes, l.zBuf)
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
	r.PassRound(a.id, a.lo, a.hi)
	for _, l := range a.out {
		tot := r.CutFlux(l.cutArcs, l.fBuf)
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
			r.Credit(l.recvArcs, l.fRing[v%span])
			l.appliedTotal += l.fRingSum[v%span]
		}
		if thru > l.applied {
			l.applied = thru
		}
		r.tel.LinkReceived(t, l.dst, l.src, a.lag[li])
	}
	r.PassApply(a.id, a.lo, a.hi)
	if a.kind == core.SOS {
		a.flowsValid = true
	}
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
	lag := int(randx.Mix(a.r.Seed(), lagSalt, uint64(l.src), uint64(l.dst), uint64(t)) % uint64(stale+1))
	if lag > t {
		lag = t
	}
	return lag
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

// drainCtl applies the actor's pending control messages, each restricted
// to the actor's own node range and parameter mirrors.
func (a *actorState) drainCtl() {
	for _, m := range a.ctl {
		switch m.op {
		case ctlInject:
			a.r.AddLoads(a.lo, a.hi, m.deltas)
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
	r.EndRound()
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

// Inject implements core.Injector: the deltas are validated and booked
// against the state, then broadcast, and each actor applies its own node
// range. Not a round — flow memory, round counter and rounding streams
// untouched. An injection that would overflow a load or a token counter is
// rejected before the broadcast, with nothing applied (see
// core.CheckInject).
func (r *Runtime) Inject(deltas []int64) error {
	if err := r.BookInject(deltas); err != nil {
		return err
	}
	r.broadcast(ctlMsg{op: ctlInject, deltas: deltas})
	return nil
}

// Retarget implements core.Retargeter: a speed event is broadcast as a
// control message installing op on every actor.
func (r *Runtime) Retarget(op *spectral.Operator) error {
	if err := r.DiscreteState.Retarget(op); err != nil {
		return err
	}
	r.broadcast(ctlMsg{op: ctlRetarget, newOp: op})
	return nil
}

// SetBeta implements core.BetaSetter via a control broadcast.
func (r *Runtime) SetBeta(beta float64) error {
	if err := r.DiscreteState.SetBeta(beta); err != nil {
		return err
	}
	r.broadcast(ctlMsg{op: ctlSetBeta, beta: beta})
	return nil
}

// SetKind switches the scheme for subsequent rounds via a control
// broadcast; switching (back) to SOS restarts its memory with an FOS round.
func (r *Runtime) SetKind(k core.Kind) {
	if k == r.Kind() {
		return
	}
	r.DiscreteState.SetKind(k)
	r.broadcast(ctlMsg{op: ctlSetKind, kind: k})
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

// Actors returns the actor count (== ShardLayout().Shards()).
func (r *Runtime) Actors() int { return len(r.act) }

// Stale returns the staleness bound S (0 means barrier mode).
func (r *Runtime) Stale() int { return r.stale }

// Options returns the runtime's options in canonical form.
func (r *Runtime) Options() Options { return Options{Actors: len(r.act), Stale: r.stale} }

// MemoryFootprint returns the resident bytes of the runtime's own arrays:
// the core state's (see core.DiscreteState.MemoryFootprint) plus the
// transport's — per-actor halos and lag draws, per-link buffers and
// version rings — the price of message passing relative to the
// shared-memory engine.
func (r *Runtime) MemoryFootprint() int64 {
	bytes := r.DiscreteState.MemoryFootprint()
	for s := range r.act {
		a := &r.act[s]
		bytes += int64(len(a.haloZ))*8 + int64(len(a.lag))*8
	}
	for _, l := range r.links {
		bytes += int64(len(l.sendNodes)+len(l.cutArcs)+len(l.recvArcs)+len(l.slot)) * 4
		bytes += int64(len(l.zBuf))*8 + int64(len(l.fBuf))*8 + int64(len(l.fRingSum))*8
		for v := range l.zRing {
			bytes += int64(len(l.zRing[v]))*8 + int64(len(l.fRing[v]))*8
		}
	}
	return bytes
}
