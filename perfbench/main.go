// Command perfbench is GMine's end-to-end benchmark. It starts the real
// server (`gmine serve`) in its own process, drives it over loopback HTTP
// with a seeded closed-loop load, checks every answer against an oracle,
// and prints each end-to-end metric with its unit. With -trace 1 it
// instead replays the same seeded stream in-process, timing calls into
// each layer, and prints the per-layer metrics. See README.md.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench -gmine <gmine binary> -workload navigate|extract-mem|extract-paged \
//	    -seed N -seconds S -trace 0|1 [-outdir .bench_build]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// workloadSpec describes one workload's set-up and load.
type workloadSpec struct {
	// disk selects a disk-backed gtree session over a saved G-Tree file;
	// otherwise the server builds a memory-backed synthetic session.
	disk    bool
	clients int
	// extract marks the refine-cycle stream; otherwise the browsing walk.
	extract bool
}

var workloads = map[string]workloadSpec{
	"navigate":      {disk: true, clients: 2},
	"extract-mem":   {clients: 1, extract: true},
	"extract-paged": {disk: true, clients: 1, extract: true},
}

// Fixed configuration every number is measured at (stamped into results).
const (
	scale = 0.01 // synthetic DBLP scale: 3,158 authors
	// 32 pages, so the 83-page CSR is 2.6x the pool and extraction pages;
	// the server's default pool is 256 pages, which would hold it all.
	poolPages  = 32
	pageSize   = 4096 // storage.DefaultPageSize
	treeK      = 5    // server default hierarchy fanout
	treeLevels = 5    // server default hierarchy depth
	setupReps  = 9    // set-ups per run; setup_s is their median
	// Whole-graph sweeps run serially. A sharded sweep waits for its
	// slowest shard at every iteration, so on a 2-vCPU VM the time the
	// hypervisor steals from either CPU stretches it by far more than the
	// stolen share, and run-to-run spread follows the neighbours' load.
	sweepShards = 1
	// A window with more than stealLimit of the CPU time stolen is
	// measured again, at most stealRetries times (see runLoad).
	stealLimit   = 0.05
	stealRetries = 1
)

type config struct {
	workload string
	spec     workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	gmine    string
	outdir   string
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "navigate, extract-mem or extract-paged")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every request stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	flag.StringVar(&cfg.gmine, "gmine", "", "path of the gmine binary to serve from")
	flag.StringVar(&cfg.outdir, "outdir", ".bench_build", "directory for the G-Tree file and span dumps")
	flag.Parse()
	spec, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || (trace == 0 && cfg.gmine == "") {
		fmt.Fprintln(os.Stderr, "usage: perfbench -gmine BIN -workload navigate|extract-mem|extract-paged -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	cfg.spec, cfg.trace, cfg.scale = spec, trace == 1, scale
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// run executes one benchmark run in a private work directory that it
// removes afterwards.
func run(cfg config) (result, error) {
	if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(cfg.outdir, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	if cfg.trace {
		return runTraced(cfg, work)
	}
	return runLoad(cfg, work)
}

func printResult(w *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}
