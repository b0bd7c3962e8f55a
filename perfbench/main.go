// Command perfbench is the repository benchmark: it times the
// reproduction's public entry points (the experiment suite, the
// host-parallel experiments and the differential checker) from
// outside, checks every output they produce, and prints the host-time
// cost a user of the reproduction waits for.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload suite --seed 1 --seconds 22 --trace 0
//	perfbench --workload all --seed 1 --seconds 22
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the
// per-layer metrics (spans, counters and CPU-profile shares) and the
// spans are written to .bench_build/spans/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: draws each pass's experiment order (suite, hostpar) or seeds the traces (check, check-tier)")
	seconds := flag.Float64("seconds", 22, "measure passes for about this many seconds (at least three passes)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer spans, counters and CPU-profile shares")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown --workload %q (want %s or all)", *name, strings.Join(workloadNames(), ", "))
		}
		selected = []workload{w}
	}

	final := line{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		host := hostShape(w.name, *seed)
		fmt.Println("host:", host)
		res, err := measure(w, *seed, *seconds, *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if *trace == 1 {
			path, err := writeSpans(spansDir, w.name, *seed, host, res.spans)
			if err != nil {
				return err
			}
			fmt.Println("spans:", path)
		}
		printSummary(os.Stdout, w.name, res, *trace == 1)
		final.Correct = final.Correct && res.failed == 0
		final.Attempted += res.attempted
		final.Failed += res.failed
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "."
		}
		for k, m := range res.metrics(*trace == 1) {
			final.Metrics[prefix+k] = m
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// line is the result object printed as the last line of stdout.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spansDir is where traced runs write their spans, relative to the
// repository root.
const spansDir = ".bench_build/spans"

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
