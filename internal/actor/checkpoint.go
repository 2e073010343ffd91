package actor

import (
	"fmt"
	"slices"

	"diffusionlb/internal/core"
)

// Checkpoint captures the resumable state of the actor runtime. The Core
// part is shaped exactly like the shared-memory engine's checkpoint (Flows
// holds the per-arc net flows, the runtime's SOS memory), so a barrier
// checkpoint is partition-free: past message versions are never re-read at
// staleness 0, and the checkpoint restores into a runtime with ANY actor
// count — including bit-identical continuation, which the equivalence
// tests pin. Async checkpoints (Stale > 0) additionally capture the
// transport — per-link version rings, applied counters and conservation
// totals (the in-flight flux) — which binds them to the same node
// partition and staleness bound, recorded in Bounds and Stale.
type Checkpoint struct {
	Core  core.Checkpoint
	Stale int
	// Bounds pins the node partition the link state belongs to; nil for
	// barrier checkpoints.
	Bounds []int32
	// Links is the per-link transport state in construction order ((src,
	// dst) ascending); nil for barrier checkpoints.
	Links []LinkState
}

// LinkState is one link's transport snapshot: the identifying shard pair,
// the applied-through version counter, the conservation totals and the raw
// version ring rows (row v%(Stale+1) holds version v, exactly as resident).
type LinkState struct {
	Src, Dst     int
	Applied      int
	SentTotal    int64
	AppliedTotal int64
	ZRows        [][]float64
	FRows        [][]int64
	FSums        []int64
}

// Checkpoint returns a deep copy of the resumable state. Combined with the
// counter-based rounding and staleness streams (seeded by round number),
// Restore yields a bit-identical continuation.
func (r *Runtime) Checkpoint() Checkpoint {
	cp := Checkpoint{Core: r.DiscreteState.Checkpoint(), Stale: r.stale}
	r.tel.Checkpoint(r.Round(), len(r.act))
	if r.stale == 0 {
		return cp
	}
	cp.Bounds = r.ShardLayout().Bounds()
	cp.Links = make([]LinkState, len(r.links))
	for i, l := range r.links {
		ls := LinkState{
			Src:          l.src,
			Dst:          l.dst,
			Applied:      l.applied,
			SentTotal:    l.sentTotal,
			AppliedTotal: l.appliedTotal,
			ZRows:        make([][]float64, len(l.zRing)),
			FRows:        make([][]int64, len(l.fRing)),
			FSums:        slices.Clone(l.fRingSum),
		}
		for v := range l.zRing {
			ls.ZRows[v] = slices.Clone(l.zRing[v])
			ls.FRows[v] = slices.Clone(l.fRing[v])
		}
		cp.Links[i] = ls
	}
	return cp
}

// Restore replaces the runtime state with a checkpoint taken from a
// runtime over the same graph (and the same seed, for the continuation to
// be identical). Barrier checkpoints restore into any actor count; async
// checkpoints require the same partition and staleness bound, validated
// against Bounds and Stale.
func (r *Runtime) Restore(cp Checkpoint) error {
	if cp.Stale != r.stale {
		return fmt.Errorf("%w: checkpoint staleness %d does not match runtime staleness %d",
			core.ErrBadConfig, cp.Stale, r.stale)
	}
	if r.stale > 0 {
		if !slices.Equal(cp.Bounds, r.ShardLayout().Bounds()) {
			return fmt.Errorf("%w: async checkpoint partition does not match the runtime's %d-actor layout",
				core.ErrBadConfig, len(r.act))
		}
		if len(cp.Links) != len(r.links) {
			return fmt.Errorf("%w: checkpoint has %d links, runtime has %d",
				core.ErrBadConfig, len(cp.Links), len(r.links))
		}
		for i, l := range r.links {
			ls := &cp.Links[i]
			if ls.Src != l.src || ls.Dst != l.dst {
				return fmt.Errorf("%w: checkpoint link %d is %d->%d, runtime has %d->%d",
					core.ErrBadConfig, i, ls.Src, ls.Dst, l.src, l.dst)
			}
			if len(ls.ZRows) != len(l.zRing) || len(ls.FRows) != len(l.fRing) || len(ls.FSums) != len(l.fRingSum) {
				return fmt.Errorf("%w: checkpoint link %d->%d ring depth does not match", core.ErrBadConfig, l.src, l.dst)
			}
			for v := range l.zRing {
				if len(ls.ZRows[v]) != len(l.zRing[v]) || len(ls.FRows[v]) != len(l.fRing[v]) {
					return fmt.Errorf("%w: checkpoint link %d->%d ring width does not match", core.ErrBadConfig, l.src, l.dst)
				}
			}
		}
	}
	// The core restore validates the rest before it changes anything, so a
	// rejected checkpoint leaves the runtime untouched.
	if err := r.DiscreteState.Restore(cp.Core); err != nil {
		return err
	}
	for i := range r.act {
		a := &r.act[i]
		a.kind = cp.Core.Kind
		a.beta = r.Beta()
		a.flowsValid = cp.Core.FlowsValid
		a.ctl = a.ctl[:0]
	}
	for i, l := range r.links {
		if r.stale > 0 {
			ls := &cp.Links[i]
			l.applied = ls.Applied
			l.sentTotal = ls.SentTotal
			l.appliedTotal = ls.AppliedTotal
			for v := range l.zRing {
				copy(l.zRing[v], ls.ZRows[v])
				copy(l.fRing[v], ls.FRows[v])
			}
			copy(l.fRingSum, ls.FSums)
		} else {
			// Barrier mode: every round applies its own flux, so the
			// applied counter is derived from the round counter and no
			// flux is in flight.
			l.applied = cp.Core.Round - 1
			l.sentTotal = 0
			l.appliedTotal = 0
		}
	}
	r.tel.Restore(cp.Core.Round, len(r.act))
	return nil
}
