package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two result sets (results.jsonl files) metric by
// metric on every workload, by the rule the benchmark's bounds are stated
// in: for each side the median and quartiles of its untraced runs, the
// pairs (runs of the same seed) each side wins, and a verdict.
//
//   - unresolved: the quartile spread of either side, as a share of its
//     median, exceeds the bound, and the runs of one side do not all beat
//     the other's;
//   - worse: the new median is worse than the old by more than the bound;
//   - better: the new side wins at least 9 in 10 pairs and its median beats
//     the old by more than the old side's quartile spread;
//   - same: none of these.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare OLD.jsonl NEW.jsonl")
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	oldRecs, err := readRecords(args[0])
	if err != nil {
		return err
	}
	newRecs, err := readRecords(args[1])
	if err != nil {
		return err
	}
	workloadNames := map[string]bool{}
	for _, r := range append(append([]record(nil), oldRecs...), newRecs...) {
		workloadNames[r.Workload] = true
	}
	regressions := 0
	fmt.Printf("%-24s %-18s %12s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "old median", "old IQR", "new median", "new IQR", "wins", "verdict")
	for _, wl := range sortedKeys(workloadNames) {
		for _, m := range spec.EndToEnd {
			oldBy, newBy := bySeed(oldRecs, wl, m.Name), bySeed(newRecs, wl, m.Name)
			if len(oldBy) == 0 || len(newBy) == 0 {
				continue
			}
			c := compareMetric(oldBy, newBy, m.Better == "higher", m.Bound)
			if c.verdict == "worse" {
				regressions++
			}
			fmt.Printf("%-24s %-18s %12.6g %12.6g %12.6g %12.6g %3d/%-3d  %s\n",
				wl, m.Name, c.oldMed, c.oldQ3-c.oldQ1, c.newMed, c.newQ3-c.newQ1, c.wins, c.pairs, c.verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) worse beyond their bound", regressions)
	}
	return nil
}

type comparison struct {
	oldQ1, oldMed, oldQ3 float64
	newQ1, newMed, newQ3 float64
	wins, pairs          int
	verdict              string
}

// compareMetric applies the verdict rule to one workload × metric, given
// each side's values keyed by seed. higher says which direction is better.
func compareMetric(oldBy, newBy map[uint64]float64, higher bool, bound float64) comparison {
	var c comparison
	oldV, newV := values(oldBy), values(newBy)
	c.oldQ1, c.oldMed, c.oldQ3 = quartiles(oldV)
	c.newQ1, c.newMed, c.newQ3 = quartiles(newV)
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	for seed, o := range oldBy {
		if n, ok := newBy[seed]; ok {
			c.pairs++
			if better(n, o) {
				c.wins++
			}
		}
	}
	// worsening is the new median's change in the bad direction, as a
	// share of the old median.
	worsening := (c.newMed - c.oldMed) / c.oldMed
	if higher {
		worsening = -worsening
	}
	spread := max((c.oldQ3-c.oldQ1)/c.oldMed, (c.newQ3-c.newQ1)/c.newMed)
	allBetter, allWorse := true, true
	for _, n := range newV {
		for _, o := range oldV {
			if !better(n, o) {
				allBetter = false
			}
			if !better(o, n) {
				allWorse = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		c.verdict = "better (every new run beats every old run)"
	case spread > bound && allWorse:
		c.verdict = "worse"
	case spread > bound:
		c.verdict = fmt.Sprintf("unresolved (spread %.1f%% exceeds the %.0f%% bound)", 100*spread, 100*bound)
	case worsening > bound:
		c.verdict = "worse"
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && -worsening*c.oldMed > c.oldQ3-c.oldQ1:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
	return c
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// bySeed picks one metric of a workload's correct untraced runs, keyed by
// seed (the last run of a seed wins).
func bySeed(recs []record, wl, name string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range recs {
		if r.Workload != wl || r.Trace || !r.Correct {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
