package actor_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/spectral"
)

// TestInjectOverflowGuard pins that the runtime refuses, before the
// broadcast, an injection that would wrap a load or a token counter around
// int64: ErrBadConfig, and loads and counters exactly as they were, for
// one and several actors.
func TestInjectOverflowGuard(t *testing.T) {
	g, err := graph.Torus2D(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := func(i int, v int64) []int64 {
		d := make([]int64, 9)
		d[i] = v
		return d
	}
	zero := make([]int64, 9)
	high := at(0, math.MaxInt64-5)
	low := at(1, math.MinInt64+5)
	half := int64(math.MaxInt64/2 + 1)
	cases := []struct {
		name    string
		x0      []int64
		before  [][]int64
		deltas  []int64
		wantErr bool
	}{
		{name: "ok", x0: zero, deltas: []int64{1, -2, 3, 0, 0, 0, 0, 0, 7}},
		{name: "ok/to-max", x0: high, deltas: at(0, 5)},
		{name: "load-up", x0: high, deltas: at(0, 6), wantErr: true},
		{name: "load-down", x0: low, deltas: at(1, -6), wantErr: true},
		{name: "min-delta", x0: zero, deltas: at(2, math.MinInt64), wantErr: true},
		{name: "added-in-call", x0: zero, deltas: []int64{half, half, 0, 0, 0, 0, 0, 0, 0}, wantErr: true},
		{name: "removed-in-call", x0: zero, deltas: []int64{-half, -half, 0, 0, 0, 0, 0, 0, 0}, wantErr: true},
		{name: "added-across-calls", x0: zero,
			before: [][]int64{at(3, math.MaxInt64-10), at(3, -(math.MaxInt64 - 10))},
			deltas: at(4, 11), wantErr: true},
		{name: "removed-across-calls", x0: zero,
			before: [][]int64{at(3, -(math.MaxInt64 - 10)), at(3, math.MaxInt64-10)},
			deltas: at(4, -11), wantErr: true},
		{name: "length", x0: zero, deltas: make([]int64, 8), wantErr: true},
	}
	for _, actors := range []int{1, 3} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("actors=%d/%s", actors, tc.name), func(t *testing.T) {
				rt, err := actor.New(op, core.SOS, 1.5, nil, 1, tc.x0, actor.Options{Actors: actors})
				if err != nil {
					t.Fatal(err)
				}
				for k, dl := range tc.before {
					if err := rt.Inject(dl); err != nil {
						t.Fatalf("setup injection %d: %v", k, err)
					}
				}
				wantLoads := slices.Clone(rt.LoadsInt())
				wantAdded, wantRemoved := rt.Injected()
				err = rt.Inject(tc.deltas)
				if !tc.wantErr {
					if err != nil {
						t.Fatalf("valid injection rejected: %v", err)
					}
					for i := range wantLoads {
						if got, want := rt.LoadsInt()[i], wantLoads[i]+tc.deltas[i]; got != want {
							t.Fatalf("load[%d] = %d, want %d", i, got, want)
						}
					}
					return
				}
				if !errors.Is(err, core.ErrBadConfig) {
					t.Fatalf("err = %v, want ErrBadConfig", err)
				}
				if !slices.Equal(rt.LoadsInt(), wantLoads) {
					t.Errorf("rejected injection changed the loads: %v, want %v", rt.LoadsInt(), wantLoads)
				}
				if added, removed := rt.Injected(); added != wantAdded || removed != wantRemoved {
					t.Errorf("rejected injection changed the counters: %d/%d, want %d/%d", added, removed, wantAdded, wantRemoved)
				}
			})
		}
	}
}
