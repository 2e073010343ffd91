// Command lbbench measures the shard-partitioned step path at scale and
// writes a BENCH JSON document (schema diffusionlb/bench-scale/v2).
//
// Usage:
//
//	lbbench [-n 1048576] [-degree 8] [-rounds 10] [-warmup 3] [-repeat 3]
//	        [-workers 0] [-actors 4] [-stale 2] [-seed 1]
//	        [-compare-telemetry] [-telemetry :addr] [-out BENCH_10.json]
//
// It runs FOS and SOS with randomized rounding on a 2-d torus and a
// random-regular graph of n nodes — on the shared-memory discrete engine,
// the barrier actor runtime (actor:K) and the bounded-staleness actor
// runtime (actor:K,stale=S) — and reports node updates per second,
// resident bytes per node and allocations per round for each cell. Each
// cell is measured -repeat times and the median by throughput is reported,
// which squeezes out the 15-25% machine-noise swings single-shot
// random-regular numbers showed.
//
// -compare-telemetry adds a telemetry-on twin row per cell (live registry,
// trace and probes attached) so the off/on pairs pin the recording
// overhead. -telemetry ADDR serves the harness's own live progress
// (Prometheus /metrics, JSON /snapshot, /debug/pprof) while the benchmark
// runs. -actors -1 drops the actor entries; -stale -1 keeps only the
// barrier actor entry. -out "" prints the JSON to stdout instead.
//
// With sequential steps (-workers 0 or 1) lbbench exits 1 after writing
// the document when any shared-memory row reports allocs_per_round > 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"diffusionlb/internal/scalebench"
	"diffusionlb/internal/telemetry"
)

func main() {
	var (
		n       = flag.Int("n", 1<<20, "node count")
		degree  = flag.Int("degree", 8, "random-regular degree")
		rounds  = flag.Int("rounds", 10, "timed rounds per cell")
		warmup  = flag.Int("warmup", 3, "warmup rounds per cell")
		repeat  = flag.Int("repeat", 3, "measurements per cell; the median by throughput is reported")
		workers = flag.Int("workers", 0, "per-step workers (0 = sequential)")
		actors  = flag.Int("actors", 4, "actor count for the message-passing runtime entries (-1 = skip them)")
		stale   = flag.Int("stale", 2, "staleness bound for the bounded-staleness actor entry (-1 = barrier only)")
		seed    = flag.Uint64("seed", 1, "graph and rounding seed")
		compare = flag.Bool("compare-telemetry", false, "measure each cell with and without live telemetry probes attached")
		telAddr = flag.String("telemetry", "", "serve live harness progress on this address while the benchmark runs (e.g. :9090)")
		out     = flag.String("out", "BENCH_10.json", "output file (empty = stdout)")
	)
	flag.Parse()

	cfg := scalebench.Config{
		N: *n, Degree: *degree, Rounds: *rounds, Warmup: *warmup, Repeat: *repeat,
		Workers: *workers, Actors: *actors, Stale: *stale, Seed: *seed,
		Telemetry: *compare,
	}
	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTrace(1024)
		srv, err := telemetry.Serve(*telAddr, reg, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "lbbench: telemetry on http://"+srv.Addr())
		cfg.Probe = telemetry.NewSweepProbe(reg, tr)
	}
	res, err := scalebench.Run(cfg, func(msg string) {
		fmt.Fprintln(os.Stderr, "lbbench:", msg)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		os.Exit(1)
	}

	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbbench:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbbench:", err)
			os.Exit(1)
		}
	}

	for _, e := range res.Entries {
		rt := e.Runtime
		if rt == "" {
			rt = "shared"
		}
		if e.Telemetry {
			rt += "+tel"
		}
		fmt.Fprintf(os.Stderr, "lbbench: %-24s %-4s %-20s %10.0f node-updates/s  %6.1f B/node  %5.1f allocs/round\n",
			e.Graph, e.Scheme, rt, e.NodeUpdatesPerSec, e.BytesPerNode, e.AllocsPerRound)
	}

	// A sequential shared-memory round allocates nothing; a row that says
	// otherwise is a regression (or a broken measurement), not a result.
	// Multi-worker rows pay shard.Run's goroutine spawns and are exempt.
	if *workers <= 1 {
		failed := false
		for _, e := range res.Entries {
			if e.Runtime == "" && e.AllocsPerRound > 0 {
				fmt.Fprintf(os.Stderr, "lbbench: %s/%s shared-memory row allocates %g objects/round, want 0\n",
					e.Graph, e.Scheme, e.AllocsPerRound)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}
