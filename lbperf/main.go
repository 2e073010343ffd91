// Command lbperf is the repository's end-to-end and per-layer benchmark.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash lbperf/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash lbperf/run.sh compare OLD.jsonl NEW.jsonl
//
// A run drives one workload as a closed loop with a single caller: it
// builds the system, runs it to completion, checks the output, and starts
// the next job, until --seconds have passed (and at least a workload's
// set number of jobs, so set-up is repeated and its median reported). Every
// input — graphs, speeds, initial loads, rounding and workload streams —
// derives from --seed. Jobs on identical inputs must produce identical
// output digests.
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the run also wraps every call into the
// program's layers in a span and reports the per-layer metrics instead.
// Each run appends its full record (the metrics, the samples behind them,
// the machine and the inputs) to .bench_build/results.jsonl; compare reads
// two such files. See README.md in this directory for the workloads, the
// metrics and the layer-to-end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// commit is stamped by the launcher when the checkout is a git work tree.
var commit = "unknown"

const (
	maxJobs = 200
	outDir  = ".bench_build"
)

var workloads = map[string]func(*run) error{
	"torus-sos-static":       func(r *run) error { return runRunnerWorkload(r, torusSOSStatic) },
	"expander-actor-dynamic": func(r *run) error { return runRunnerWorkload(r, expanderActorDynamic) },
	"sweep-small-grid":       runSweepWorkload,
}

// endToEnd and perLayer are the metric names of the two run kinds, in the
// order BENCHMARK.json lists them.
var endToEnd = []string{"setup_s", "arc_updates_per_s", "round_ms_p50", "bytes_per_arc", "cells_per_s"}

var perLayer = []string{
	"graph.build_s", "spectral.operator_s", "spectral.lambda_s", "core.new_s", "actor.new_s",
	"core.step_ms_p50", "core.allocs_per_step", "core.bytes_per_arc", "core.tokens_moved_per_round", "core.messages_per_round",
	"actor.step_ms_p50", "actor.allocs_per_step", "actor.bytes_per_arc", "actor.boundary_msgs_per_round", "actor.straggler_ratio",
	"shard.fanout_us", "shard.arc_imbalance",
	"sim.round_ms", "sim.step_ms",
	"sim.metric.max_minus_avg_ms", "sim.metric.max_local_diff_ms", "sim.metric.potential_per_n_ms",
	"sim.policy_ms", "sim.inject_ms", "sim.retarget_ms", "workload.deltas_ms", "envdyn.factors_ms", "sim.self_ms",
	"sweep.cell_gap_ms_p50", "sweep.tail_ms", "sweep.sink_write_ms", "sweep.sink_bytes", "sweep.workers_busy_mean",
	"trace.overhead_frac",
}

// layerUnits gives the unit of every per-layer metric, so that a metric a
// workload does not exercise is still reported (as 0) with its unit.
var layerUnits = map[string]string{
	"core.allocs_per_step": "count", "actor.allocs_per_step": "count",
	"core.bytes_per_arc": "B/arc", "actor.bytes_per_arc": "B/arc",
	"core.tokens_moved_per_round": "count", "core.messages_per_round": "count",
	"actor.boundary_msgs_per_round": "count", "actor.straggler_ratio": "ratio",
	"shard.fanout_us": "us", "shard.arc_imbalance": "ratio",
	"sweep.sink_bytes": "B", "sweep.workers_busy_mean": "count", "trace.overhead_frac": "ratio",
}

func layerUnit(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return "ms"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one invocation of a workload.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tr       *tracer

	attempted, failed int
	failures          []string
	metrics           map[string]metric

	nodes, arcs  int
	workingSet   int64
	roundSamples []float64
	// jobSamples keeps each job's value of an end-to-end metric, so a
	// record shows the spread inside the run behind its median.
	jobSamples map[string][]float64
}

func (r *run) addSample(name string, v float64) {
	if r.jobSamples == nil {
		r.jobSamples = map[string][]float64{}
	}
	r.jobSamples[name] = append(r.jobSamples[name], v)
}

func (r *run) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check. Failures are counted per job by the
// workloads' record step and per run otherwise.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "lbperf: FAIL:", msg)
}

// record is the full result of one run, appended to results.jsonl.
type record struct {
	Workload     string               `json:"workload"`
	Seed         uint64               `json:"seed"`
	Trace        bool                 `json:"trace"`
	Seconds      float64              `json:"seconds"`
	Commit       string               `json:"commit"`
	GoVersion    string               `json:"go_version"`
	NumCPU       int                  `json:"nproc"`
	GOMAXPROCS   int                  `json:"gomaxprocs"`
	Nodes        int                  `json:"n"`
	Arcs         int                  `json:"arcs"`
	WorkingSet   int64                `json:"working_set_bytes"`
	LLC          int64                `json:"llc_bytes_reported"`
	Correct      bool                 `json:"correct"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	Failures     []string             `json:"failures,omitempty"`
	Metrics      map[string]metric    `json:"metrics"`
	JobSamples   map[string][]float64 `json:"job_samples,omitempty"`
	RoundSamples int                  `json:"round_samples,omitempty"`
	RoundP90     *float64             `json:"round_ms_p90,omitempty"`
	Started      string               `json:"started"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lbperf compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: torus-sos-static, expander-actor-dynamic or sweep-small-grid")
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 20, "how long to keep starting jobs")
	trace := flag.Int("trace", 0, "1 traces the run and reports per-layer metrics")
	flag.Parse()
	body, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lbperf: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Results and traces go next to the build; refuse to run where the
	// launcher did not set that up (e.g. a directory without the program).
	if st, err := os.Stat(outDir); err != nil || !st.IsDir() {
		fmt.Fprintln(os.Stderr, "lbperf: run through lbperf/run.sh from the repository root")
		os.Exit(2)
	}

	r := &run{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if r.trace {
		r.tr = newTracer()
	}
	started := time.Now()
	if err := body(r); err != nil {
		r.attempted++
		r.fail("%v", err)
	}
	r.failed = min(len(r.failures), max(r.attempted, 1))
	if r.attempted == 0 {
		r.attempted = 1
	}

	names := endToEnd
	if r.trace {
		names = perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		switch {
		case ok:
			out[n] = m
		case r.trace:
			out[n] = metric{Value: 0, Unit: layerUnit(n)}
		default:
			if len(r.failures) == 0 {
				r.fail("metric %s was not measured", n)
				r.failed = 1
			}
		}
	}
	correct := len(r.failures) == 0

	rec := record{
		Workload: r.workload, Seed: r.seed, Trace: r.trace, Seconds: r.seconds.Seconds(),
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nodes: r.nodes, Arcs: r.arcs, WorkingSet: r.workingSet, LLC: llcBytes(),
		Correct: correct, Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: out, JobSamples: r.jobSamples, RoundSamples: len(r.roundSamples), Started: started.UTC().Format(time.RFC3339),
	}
	if p90, ok := percentile(r.roundSamples, 90); ok {
		rec.RoundP90 = &p90
	}
	if err := appendRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "lbperf:", err)
	}
	if r.tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "lbperf:", err)
		}
	}

	printSummary(rec, names)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printSummary writes the human-readable report: every metric by name and
// unit, the sample count behind the round latency, and the p90 where at
// least ten samples lie beyond it.
func printSummary(rec record, names []string) {
	fmt.Printf("lbperf %s seed=%d trace=%v commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Commit, rec.GoVersion, rec.NumCPU, rec.GOMAXPROCS)
	fmt.Printf("  n=%d arcs=%d working_set=%.1f MiB (computed) llc=%.0f MiB (reported by the OS)\n",
		rec.Nodes, rec.Arcs, float64(rec.WorkingSet)/(1<<20), float64(rec.LLC)/(1<<20))
	fmt.Printf("  ops: attempted=%d failed=%d\n", rec.Attempted, rec.Failed)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if !rec.Trace {
		p90 := "not reported (fewer than 10 samples beyond it)"
		if rec.RoundP90 != nil {
			p90 = strconv.FormatFloat(*rec.RoundP90, 'g', 6, 64) + " ms"
		}
		fmt.Printf("  round latency samples=%d p90=%s\n", rec.RoundSamples, p90)
	}
}

func appendRecord(rec record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// llcBytes is the last-level cache size the OS reports for CPU 0 (0 when
// it reports none). On a shared VM it is the host's cache, shared with
// other tenants.
func llcBytes() int64 {
	blob, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(blob))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
