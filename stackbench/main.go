// Command stackbench is the repository's end-to-end benchmark: one
// command that runs a named workload against the public spmspv API,
// checks every output against an oracle, and prints the metrics named
// in BENCHMARK.json.
//
//	stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see workloads.go for why each was chosen):
//
//	bfs-rmat           in-process BFS on a Graph500-style R-MAT graph
//	bfs-mesh           in-process BFS on a 2D grid (hundreds of levels)
//	serve-mult         2 closed-loop callers, binary wire, coalescing server
//	serve-bfs-program  1 closed-loop caller invoking a stored BFS program
//	                   on a 2-band sharded store
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured with tracing off on one P (see procsFor). With --trace 1 the
// run keeps the library default of GOMAXPROCS = nproc, measures an
// untraced half and a traced half, and the last line carries the
// per-layer metrics; spans are written to --spans when the run ends.
// Every line before the last is a human-readable report: the run's
// fingerprint (Go version, GOMAXPROCS, nproc, CPU model, L2 size,
// seed, matrix sizes) and every end-to-end metric with its sample
// count, including latency_p99_ms and error_rate, which the result
// line leaves out (see endToEndNames).
//
// Any wrong output makes the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"spmspv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, executes one workload and prints its report; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed for the graph and the operation list")
	seconds := fs.Float64("seconds", 10, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 measures per-layer metrics with spans, 0 end-to-end metrics")
	spans := fs.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "stackbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spansDir: *spans,
		size:     fullSize,
	}
	return execute(cfg, stdout, stderr)
}

// execute runs cfg and prints the report; split from run so the smoke
// test can drive tiny sizes.
func execute(cfg config, stdout, stderr io.Writer) int {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "stackbench: unknown workload %q (want one of %v)\n", cfg.workload, workloadNames())
		return 2
	}
	procs := procsFor(cfg.trace)
	runtime.GOMAXPROCS(procs)
	spmspv.SetExecutorWorkers(procs - 1)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printReport(stdout, cfg, res)
	line, err := json.Marshal(res.line(cfg.trace))
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if res.wrong != "" {
		fmt.Fprintf(stderr, "stackbench: %s: incorrect output: %s\n", cfg.workload, res.wrong)
		return 1
	}
	return 0
}

// procsFor returns the Ps a run uses. End-to-end runs pin one P, so
// every multiply runs inline on its caller. At nproc Ps each kernel
// step ends at a fork-join barrier that waits for the slowest worker,
// and on a shared host whose other tenants keep its vCPUs busy that
// worker is often one the host has descheduled: on a 2-vCPU host with
// two spinning neighbour processes, bfs-rmat's teps fell 45% at 2 Ps
// and 4% at 1 P. Traced runs keep the library default, GOMAXPROCS =
// nproc with nproc-1 executor workers, so that the executor's
// per-layer metrics (par.*) measure it at work.
func procsFor(trace bool) int {
	if trace {
		return runtime.NumCPU()
	}
	return 1
}
