package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// injectCase is one row of the Inject overflow table: the initial loads of
// a 3×3 torus, injections that must succeed first, and the injection under
// test.
type injectCase struct {
	name    string
	x0      []int64
	before  [][]int64
	deltas  []int64
	wantErr bool
}

// at returns a 9-node delta vector with v at node i.
func at(i int, v int64) []int64 {
	d := make([]int64, 9)
	d[i] = v
	return d
}

// injectCases covers every overflow Inject must refuse. counters says
// whether the engine keeps cumulative injected/removed counters across
// calls (CumulativeDiscrete checks only the per-call totals).
func injectCases(counters bool) []injectCase {
	zero := make([]int64, 9)
	high := at(0, math.MaxInt64-5)
	low := at(1, math.MinInt64+5)
	half := int64(math.MaxInt64/2 + 1)
	cases := []injectCase{
		{name: "ok", x0: zero, deltas: []int64{1, -2, 3, 0, 0, 0, 0, 0, 7}},
		{name: "ok/to-max", x0: high, deltas: at(0, 5)},
		{name: "ok/to-min", x0: low, deltas: at(1, -5)},
		{name: "load-up", x0: high, deltas: at(0, 6), wantErr: true},
		{name: "load-down", x0: low, deltas: at(1, -6), wantErr: true},
		{name: "min-delta", x0: zero, deltas: at(2, math.MinInt64), wantErr: true},
		{name: "added-in-call", x0: zero, deltas: []int64{half, half, 0, 0, 0, 0, 0, 0, 0}, wantErr: true},
		{name: "removed-in-call", x0: zero, deltas: []int64{-half, -half, 0, 0, 0, 0, 0, 0, 0}, wantErr: true},
		{name: "length", x0: zero, deltas: make([]int64, 8), wantErr: true},
	}
	if counters {
		cases = append(cases,
			injectCase{name: "added-across-calls", x0: zero,
				before: [][]int64{at(3, math.MaxInt64-10), at(3, -(math.MaxInt64 - 10))},
				deltas: at(4, 11), wantErr: true},
			injectCase{name: "removed-across-calls", x0: zero,
				before: [][]int64{at(3, -(math.MaxInt64 - 10)), at(3, math.MaxInt64-10)},
				deltas: at(4, -11), wantErr: true},
		)
	}
	return cases
}

// TestInjectOverflowGuard pins that Discrete and CumulativeDiscrete refuse
// an injection that would wrap a load or a token counter around int64,
// with ErrBadConfig and every observable left exactly as it was.
func TestInjectOverflowGuard(t *testing.T) {
	op := torusOp(t, 3, 3)
	cfg := Config{Op: op, Kind: SOS, Beta: 1.5}
	for _, engine := range []string{"discrete", "cumulative"} {
		for _, tc := range injectCases(engine == "discrete") {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				var (
					inj     func([]int64) error
					loads   func() []int64
					counter func() string
				)
				switch engine {
				case "discrete":
					d, err := NewDiscrete(cfg, nil, 1, tc.x0)
					if err != nil {
						t.Fatal(err)
					}
					inj, loads = d.Inject, d.LoadsInt
					counter = func() string { a, r := d.Injected(); return fmt.Sprint(a, r) }
				default:
					c, err := NewCumulativeDiscrete(cfg, tc.x0)
					if err != nil {
						t.Fatal(err)
					}
					inj, loads = c.Inject, c.LoadsInt
					counter = func() string { return fmt.Sprint(c.Reference().LoadsFloat()) }
				}
				for k, dl := range tc.before {
					if err := inj(dl); err != nil {
						t.Fatalf("setup injection %d: %v", k, err)
					}
				}
				wantLoads := slices.Clone(loads())
				wantCounter := counter()
				err := inj(tc.deltas)
				if !tc.wantErr {
					if err != nil {
						t.Fatalf("valid injection rejected: %v", err)
					}
					for i := range wantLoads {
						if got, want := loads()[i], wantLoads[i]+tc.deltas[i]; got != want {
							t.Fatalf("load[%d] = %d, want %d", i, got, want)
						}
					}
					return
				}
				if !errors.Is(err, ErrBadConfig) {
					t.Fatalf("err = %v, want ErrBadConfig", err)
				}
				if !slices.Equal(loads(), wantLoads) {
					t.Errorf("rejected injection changed the loads: %v, want %v", loads(), wantLoads)
				}
				if got := counter(); got != wantCounter {
					t.Errorf("rejected injection changed the counters/reference: %s, want %s", got, wantCounter)
				}
			})
		}
	}
}
