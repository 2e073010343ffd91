package actor

import (
	"fmt"
	"testing"

	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/spectral"
)

// TestMemoryFootprintIsCorePlusTransport pins the single per-arc format:
// the actor runtime's resident bytes minus its transport buffers (halos,
// lag draws, link buffers and version rings) must equal the shared-memory
// engine's on the same graph and shard count. A runtime that grew its own
// per-node or per-arc state next to core.DiscreteState fails here.
func TestMemoryFootprintIsCorePlusTransport(t *testing.T) {
	g, err := graph.RandomRegular(512, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, g.NumNodes())
	for i := range x0 {
		x0[i] = int64(i % 13)
	}
	for _, actors := range []int{1, 2, 7} {
		for _, stale := range []int{0, 2} {
			for _, record := range []bool{false, true} {
				t.Run(fmt.Sprintf("actors=%d/stale=%d/record=%v", actors, stale, record), func(t *testing.T) {
					a, err := New(op, core.SOS, 1.5, nil, 1, x0, Options{Actors: actors, Stale: stale})
					if err != nil {
						t.Fatal(err)
					}
					d, err := core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.5, Layout: a.ShardLayout()}, nil, 1, x0)
					if err != nil {
						t.Fatal(err)
					}
					a.RecordScheduledFlows(record)
					d.RecordScheduledFlows(record)
					var transport int64
					for s := range a.act {
						transport += int64(len(a.act[s].haloZ)+len(a.act[s].lag)) * 8
					}
					for _, l := range a.links {
						transport += int64(len(l.sendNodes)+len(l.cutArcs)+len(l.recvArcs)+len(l.slot)) * 4
						transport += int64(len(l.zBuf)+len(l.fBuf)+len(l.fRingSum)) * 8
						for v := range l.zRing {
							transport += int64(len(l.zRing[v])+len(l.fRing[v])) * 8
						}
					}
					if got, want := a.MemoryFootprint()-transport, d.MemoryFootprint(); got != want {
						t.Errorf("actor footprint minus transport = %d B, shared-memory engine = %d B (%+.2f B/arc)",
							got, want, float64(got-want)/float64(g.NumArcs()))
					}
				})
			}
		}
	}
}
