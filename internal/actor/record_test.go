package actor_test

import (
	"fmt"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/spectral"
)

// recorder is what both discrete engines expose around Ŷ recording.
type recorder interface {
	Step()
	LoadsInt() []int64
	Flows() []int64
	Traffic() (tokens, messages int64)
	RecordScheduledFlows(on bool)
	ScheduledFlows() []float64
}

// TestRecordScheduledFlowsLeavesResultsUnchanged pins that recording Ŷ is
// pure observation: a twin that records from the start (and one toggled
// on and off mid-run) produces loads, flows and Traffic bit-identical to a
// twin that never records, for every rounder × FOS/SOS on the
// shared-memory engine over 1, 2 and 7 shards and on the actor runtime
// over 1, 2 and 3 actors. A non-recording engine holds no Ŷ array.
func TestRecordScheduledFlowsLeavesResultsUnchanged(t *testing.T) {
	g := goldenGraph(t)
	n := g.NumNodes()
	sp1, _ := goldenSpeeds(t, n)
	op, err := spectral.NewOperator(g, sp1, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := goldenInitial(n)
	const rounds = 30

	type engine struct {
		name  string
		sizes []int
		build func(t *testing.T, kind core.Kind, r core.Rounder, size int) recorder
	}
	engines := []engine{
		{"shards", []int{1, 2, 7}, func(t *testing.T, kind core.Kind, r core.Rounder, size int) recorder {
			d, err := core.NewDiscrete(core.Config{Op: op, Kind: kind, Beta: 1.5, Workers: size}, r, 5, x0)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"actors", []int{1, 2, 3}, func(t *testing.T, kind core.Kind, r core.Rounder, size int) recorder {
			a, err := actor.New(op, kind, 1.5, r, 5, x0, actor.Options{Actors: size})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	}
	for _, e := range engines {
		for _, kind := range []core.Kind{core.FOS, core.SOS} {
			for _, name := range []string{"randomized", "floor", "nearest", "bernoulli"} {
				for _, size := range e.sizes {
					t.Run(fmt.Sprintf("%s=%d/%s/%s", e.name, size, kind, name), func(t *testing.T) {
						r, _ := core.RounderByName(name)
						off := e.build(t, kind, r, size)
						on := e.build(t, kind, r, size)
						toggled := e.build(t, kind, r, size)
						on.RecordScheduledFlows(true)
						for round := 0; round < rounds; round++ {
							toggled.RecordScheduledFlows(round >= 10 && round < 20)
							off.Step()
							on.Step()
							toggled.Step()
							if off.ScheduledFlows() != nil {
								t.Fatalf("round %d: non-recording engine holds a Ŷ array", round)
							}
							for _, p := range []recorder{on, toggled} {
								eqInt64(t, round, "loads", p.LoadsInt(), off.LoadsInt())
								eqInt64(t, round, "flows", p.Flows(), off.Flows())
							}
						}
						wantTok, wantMsg := off.Traffic()
						for _, p := range []recorder{on, toggled} {
							if tok, msg := p.Traffic(); tok != wantTok || msg != wantMsg {
								t.Errorf("traffic %d/%d, non-recording twin %d/%d", tok, msg, wantTok, wantMsg)
							}
						}
					})
				}
			}
		}
	}
}
