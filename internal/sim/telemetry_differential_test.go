package sim_test

import (
	"math"
	"reflect"
	"testing"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
)

// TestTelemetryDifferentialDeterminism pins the telemetry layer's core
// contract: a run with live probes attached is bit-identical to the same
// run with telemetry.Nop — loads, flows, the recorded Series and every
// event history — for both the shared-memory engine and the actor:4
// runtime, across the full golden dynamics timeline (inject@10,
// reweight@20, SetBeta@30, kind-flip@40, plus a β re-opt triggered by the
// speed event).
func TestTelemetryDifferentialDeterminism(t *testing.T) {
	for _, runtime := range []string{"discrete", "actor:4"} {
		t.Run(runtime, func(t *testing.T) {
			off := runTimeline(t, runtime, nil, nil)
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTrace(4096)
			on := runTimeline(t, runtime, reg, tr)

			// Trajectory state, bitwise.
			eqI64(t, "loads", on.loads, off.loads)
			eqI64(t, "flows", on.flows, off.flows)
			eqF64Bits(t, "scheduled flows", on.scheduled, off.scheduled)

			// Recorded series, bitwise.
			sOn, sOff := on.res.Series, off.res.Series
			if !reflect.DeepEqual(sOn.Names(), sOff.Names()) {
				t.Fatalf("series columns %v vs %v", sOn.Names(), sOff.Names())
			}
			if sOn.Len() != sOff.Len() {
				t.Fatalf("series length %d vs %d", sOn.Len(), sOff.Len())
			}
			for i := 0; i < sOn.Len(); i++ {
				if sOn.Round(i) != sOff.Round(i) {
					t.Fatalf("row %d round %d vs %d", i, sOn.Round(i), sOff.Round(i))
				}
				eqF64Bits(t, "series row", sOn.Row(i), sOff.Row(i))
			}

			// Event histories.
			if !reflect.DeepEqual(on.res.Switches, off.res.Switches) {
				t.Errorf("switches %v vs %v", on.res.Switches, off.res.Switches)
			}
			if !reflect.DeepEqual(on.res.SpeedEvents, off.res.SpeedEvents) {
				t.Errorf("speed events %v vs %v", on.res.SpeedEvents, off.res.SpeedEvents)
			}
			if !reflect.DeepEqual(on.res.BetaEvents, off.res.BetaEvents) {
				t.Errorf("beta events %v vs %v", on.res.BetaEvents, off.res.BetaEvents)
			}
			if on.res.StaleBetaRounds != off.res.StaleBetaRounds {
				t.Errorf("stale beta rounds %d vs %d", on.res.StaleBetaRounds, off.res.StaleBetaRounds)
			}

			// The telemetry-on run must actually have observed the timeline:
			// round, inject, reweight, β re-opt and switch events all present.
			kinds := map[telemetry.EventKind]int{}
			for _, e := range tr.Events() {
				kinds[e.Kind]++
			}
			for _, want := range []telemetry.EventKind{
				telemetry.EvRound, telemetry.EvInject, telemetry.EvReweight,
				telemetry.EvBetaReopt, telemetry.EvSwitch,
			} {
				if kinds[want] == 0 {
					t.Errorf("telemetry-on run recorded no %v events (got %v)", want, kinds)
				}
			}
			if runtime == "actor:4" {
				var snap = telemetry.TakeSnapshot(reg, nil)
				var sent float64
				for _, c := range snap.Counters {
					if c.Name == "diffusionlb_actor_messages_sent_total" {
						sent = c.Value
					}
				}
				if sent == 0 {
					t.Error("actor runtime recorded no boundary messages")
				}
			}
		})
	}
}

// timelineResult is everything a differential comparison needs from one run.
type timelineResult struct {
	res       *sim.Result
	loads     []int64
	flows     []int64
	scheduled []float64
}

// runTimeline builds a fresh system and drives the golden dynamics
// timeline through a sim.Runner, with or without telemetry attached.
func runTimeline(t *testing.T, runtime string, reg *telemetry.Registry, tr *telemetry.Trace) timelineResult {
	t.Helper()
	const (
		seed   = 42
		rounds = 60
	)
	g, err := graph.Torus2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 + float64(i%5)*0.5
	}
	sp, err := hetero.New(s)
	if err != nil {
		t.Fatal(err)
	}
	op, err := spectral.NewOperator(g, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = int64((i * i) % 97)
	}

	var proc core.Process
	switch runtime {
	case "discrete":
		var d *core.Discrete
		d, err = core.NewDiscrete(core.Config{Op: op, Kind: core.SOS, Beta: 1.7, Workers: 2}, nil, seed, x0)
		if d != nil {
			d.RecordScheduledFlows(true)
		}
		proc = d
	default:
		opts, aErr := actor.FromSpec(runtime)
		if aErr != nil {
			t.Fatal(aErr)
		}
		var rt *actor.Runtime
		rt, err = actor.New(op, core.SOS, 1.7, nil, seed, x0, opts)
		if rt != nil {
			rt.SetTelemetry(telemetry.NewActorProbe(reg, tr, opts.Actors, true))
			rt.RecordScheduledFlows(true)
		}
		proc = rt
	}
	if err != nil {
		t.Fatal(err)
	}

	wl, err := workload.FromSpec("burst:10:5000", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	env, err := envdyn.FromSpec("throttle:at=20,frac=0.25,factor=0.5", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.PolicyFromSpec("at:40")
	if err != nil {
		t.Fatal(err)
	}
	runner := &sim.Runner{
		Proc:        proc,
		Metrics:     append(sim.DefaultMetrics(), sim.DynamicMetrics()...),
		Workload:    wl,
		Environment: env,
		Adaptive:    policy,
		BetaReopt:   &sim.BetaReopt{Threshold: 0.01},
		OnRound: func(round int, p core.Process) {
			if round == 30 {
				if err := p.(core.BetaSetter).SetBeta(1.5); err != nil {
					t.Fatal(err)
				}
			}
		},
		Telemetry: func() *telemetry.RunProbe {
			if reg == nil && tr == nil {
				return nil
			}
			return telemetry.NewRunProbe(reg, tr)
		}(),
	}
	res, err := runner.Run(rounds)
	if err != nil {
		t.Fatal(err)
	}
	out := timelineResult{res: res}
	out.loads = append(out.loads, proc.Loads().Int...)
	switch p := proc.(type) {
	case *core.Discrete:
		out.flows = append(out.flows, p.Flows()...)
		out.scheduled = append(out.scheduled, p.ScheduledFlows()...)
	case *actor.Runtime:
		out.flows = append(out.flows, p.Flows()...)
		out.scheduled = append(out.scheduled, p.ScheduledFlows()...)
	}
	return out
}

func eqI64(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d with telemetry, %d without", what, i, got[i], want[i])
		}
	}
}

func eqF64Bits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %g with telemetry, %g without", what, i, got[i], want[i])
		}
	}
}
