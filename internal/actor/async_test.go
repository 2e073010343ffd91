package actor_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/spectral"
)

// asyncTrace runs a fresh async runtime through the full golden dynamics
// timeline and records the load vector after every round plus the final
// diagnostics — the replayable fingerprint the determinism tests compare.
type asyncTrace struct {
	loads    [][]int64
	flows    []int64
	inFlight []int64
	minT     int64
	minSet   bool
	negR     int
	tokens   int64
	msgs     int64
}

func runAsyncTimeline(t *testing.T, actors, stale int, kind core.Kind) asyncTrace {
	t.Helper()
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, sp2 := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	deltas := goldenDeltas(n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := actor.New(op, kind, 1.5, nil, 42, x0, actor.Options{Actors: actors, Stale: stale})
	if err != nil {
		t.Fatal(err)
	}
	flip := core.FOS
	if kind == core.FOS {
		flip = core.SOS
	}
	var tr asyncTrace
	for round := 0; round < goldenRounds; round++ {
		switch round {
		case 10:
			if err := a.Inject(deltas); err != nil {
				t.Fatal(err)
			}
		case 20:
			if err := op.Reweight(sp2); err != nil {
				t.Fatal(err)
			}
			if err := a.Retarget(op); err != nil {
				t.Fatal(err)
			}
		case 30:
			if err := a.SetBeta(1.7); err != nil {
				t.Fatal(err)
			}
		case 40:
			a.SetKind(flip)
		case 50:
			if err := op.Reweight(sp1); err != nil {
				t.Fatal(err)
			}
			if err := a.Retarget(op); err != nil {
				t.Fatal(err)
			}
		}
		a.Step()
		loads := append([]int64(nil), a.LoadsInt()...)
		tr.loads = append(tr.loads, loads)
		tr.inFlight = append(tr.inFlight, a.InFlightLoad())
	}
	tr.flows = append([]int64(nil), a.Flows()...)
	tr.minT, tr.minSet = a.MinTransientInt()
	tr.negR = a.NegativeTransientRounds()
	tr.tokens, tr.msgs = a.Traffic()
	return tr
}

// TestAsyncDeterministicReplay pins the async determinism contract: the
// staleness schedule is a seeded counter stream, not a wall-clock race, so
// repeated runs — including under different GOMAXPROCS — produce the same
// interleaving and therefore identical trajectories, bit for bit.
func TestAsyncDeterministicReplay(t *testing.T) {
	for _, stale := range []int{1, 3} {
		for _, kind := range []core.Kind{core.FOS, core.SOS} {
			t.Run(fmt.Sprintf("%s/stale=%d", kind, stale), func(t *testing.T) {
				ref := runAsyncTimeline(t, 7, stale, kind)
				got := runAsyncTimeline(t, 7, stale, kind)

				prev := runtime.GOMAXPROCS(2)
				limited := runAsyncTimeline(t, 7, stale, kind)
				runtime.GOMAXPROCS(prev)

				for _, tr := range []asyncTrace{got, limited} {
					for round := range ref.loads {
						eqInt64(t, round, "loads", tr.loads[round], ref.loads[round])
						if tr.inFlight[round] != ref.inFlight[round] {
							t.Fatalf("round %d: in-flight %d, reference %d", round, tr.inFlight[round], ref.inFlight[round])
						}
					}
					eqInt64(t, goldenRounds, "flows", tr.flows, ref.flows)
					if tr.minT != ref.minT || tr.minSet != ref.minSet || tr.negR != ref.negR ||
						tr.tokens != ref.tokens || tr.msgs != ref.msgs {
						t.Fatalf("diagnostics diverge: (%d,%v,%d,%d,%d) vs (%d,%v,%d,%d,%d)",
							tr.minT, tr.minSet, tr.negR, tr.tokens, tr.msgs,
							ref.minT, ref.minSet, ref.negR, ref.tokens, ref.msgs)
					}
				}
			})
		}
	}
}

// digest fingerprints the whole trace: per-round loads and in-flight load,
// the final flows, the transient minimum, the negative-transient round
// count and the traffic counters.
func (tr asyncTrace) digest() string {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for round, loads := range tr.loads {
		for _, v := range loads {
			put(v)
		}
		put(tr.inFlight[round])
	}
	for _, v := range tr.flows {
		put(v)
	}
	minSet := int64(0)
	if tr.minSet {
		minSet = 1
	}
	for _, v := range []int64{tr.minT, minSet, int64(tr.negR), tr.tokens, tr.msgs} {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestAsyncGoldenDigests pins the bounded-staleness semantics themselves,
// not just their replayability: each actor count × staleness bound × scheme
// cell of the golden timeline must reproduce a recorded digest, so a change
// to how late flux is credited, how the transient minimum is taken under
// staleness, or what the SOS memory holds on a cut arc fails here.
func TestAsyncGoldenDigests(t *testing.T) {
	want := map[string]string{
		"actor:2,stale=1/FOS": "3b622aa2bdd53d02",
		"actor:2,stale=1/SOS": "d4813e8028e1cc8e",
		"actor:2,stale=3/FOS": "6b10687b58071667",
		"actor:2,stale=3/SOS": "45911425a165f7af",
		"actor:3,stale=1/FOS": "bfde20cadb59a6c4",
		"actor:3,stale=1/SOS": "138b7d93ffdd181e",
		"actor:3,stale=3/FOS": "8116b7915908a192",
		"actor:3,stale=3/SOS": "d9f0d9a5d4c04d00",
	}
	for _, actors := range []int{2, 3} {
		for _, stale := range []int{1, 3} {
			for _, kind := range []core.Kind{core.FOS, core.SOS} {
				name := fmt.Sprintf("%s/%s", actor.Options{Actors: actors, Stale: stale}.Name(), kind)
				t.Run(name, func(t *testing.T) {
					if got := runAsyncTimeline(t, actors, stale, kind).digest(); got != want[name] {
						t.Errorf("digest %s, want %s", got, want[name])
					}
				})
			}
		}
	}
}

// TestAsyncConservation pins token conservation through the transport:
// loads alone are NOT conserved under staleness (flux debited at the
// sender may sit in a version ring for up to K rounds), but
// Σ loads + InFlightLoad is exact at every round boundary — the identity
// the runtime invariant checker asserts for InFlightReporter processes.
func TestAsyncConservation(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, _ := goldenSpeeds(t, n)
	x0 := goldenInitial(n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range x0 {
		total += v
	}
	for _, stale := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("stale=%d", stale), func(t *testing.T) {
			a, err := actor.New(op, core.SOS, 1.5, nil, 5, x0, actor.Options{Actors: 4, Stale: stale})
			if err != nil {
				t.Fatal(err)
			}
			sawInFlight := false
			for round := 0; round < 40; round++ {
				a.Step()
				inFlight := a.InFlightLoad()
				if inFlight != 0 {
					sawInFlight = true
				}
				if got := a.TotalLoad() + inFlight; got != total {
					t.Fatalf("round %d: Σloads + in-flight = %d (in-flight %d), want %d", round, got, inFlight, total)
				}
			}
			if !sawInFlight {
				t.Error("staleness never left tokens in flight; the async path was not exercised")
			}
		})
	}
}

// TestAsyncStalenessChangesTrajectory is the sanity complement of the
// stale=0 degeneracy test: a positive staleness bound must actually delay
// flux (otherwise the async mode silently collapsed to barrier and the
// discrepancy-vs-staleness experiment measures nothing).
func TestAsyncStalenessChangesTrajectory(t *testing.T) {
	barrier := runAsyncTimeline(t, 4, 0, core.SOS)
	stale := runAsyncTimeline(t, 4, 2, core.SOS)
	diverged := false
	for round := range barrier.loads {
		for i := range barrier.loads[round] {
			if barrier.loads[round][i] != stale.loads[round][i] {
				diverged = true
				break
			}
		}
		if diverged {
			break
		}
	}
	if !diverged {
		t.Error("stale=2 trajectory is identical to barrier over the full timeline")
	}
}
