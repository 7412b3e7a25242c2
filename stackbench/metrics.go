package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"spmspv"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	spansDir string
	size     size
}

// size fixes the inputs' dimensions; the smoke test shrinks them.
type size struct {
	rmatScale   int // bfs-rmat: DefaultRMAT(rmatScale)
	rmatSources int
	meshSide    int // bfs-mesh: Grid2D(meshSide, meshSide)
	meshSources int
	serveScale  int // serve-mult: DefaultRMAT(serveScale)
	requests    int // distinct serve-mult requests
	progSide    int // serve-bfs-program: Grid2D(progSide, progSide)
	progSources int
	setupReps   int // set-ups per run; setup_s is their median
	replayOps   int // operations whose kernel calls the traced run replays
	speedupOps  int // operations timed at 1 thread and at the default
}

var fullSize = size{
	rmatScale: 17, rmatSources: 32,
	meshSide: 512, meshSources: 64,
	serveScale: 16, requests: 2048,
	progSide: 64, progSources: 16,
	setupReps: 9, replayOps: 4, speedupOps: 4,
}

// metricDef names one metric, its unit, its better direction, and —
// for per-layer metrics — the end-to-end metric and workload it should
// move.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics of the --trace 0 result line, measured with
// tracing off and one P (see procsFor). teps, throughput_rps and
// best_latency_p50_ms are taken from each distinct operation's fastest
// repeat (see repeats): one pass over the operation list at each
// operation's own cost. The report lines print the latency
// percentiles over all samples (p50, p90, p99, with the samples beyond
// each) and error_rate; they are kept out of the result line because
// they move with the host's load, not with the code (p99 also has too
// few samples beyond it on the BFS and program runs), and error_rate is
// 0 on a correct run (failures are the result line's "failed").
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "teps", unit: "edges/s", better: "higher"},
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "best_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of the --trace 1 result line. A layer a
// workload does not cross reads 0. Kernel step times come from
// replaying captured SpMSpV calls through internal/core one at a time;
// par.speedup times the workload's in-process kernel path at
// WithThreads(1) over the default (BFS for bfs-*, the request vectors'
// multiplies for serve-mult, BFSMasked, the program's level step, for
// serve-bfs-program).
var perLayer = []metricDef{
	{"kernel.mults_per_op", "count", "lower", "teps on bfs-rmat and bfs-mesh"},
	{"kernel.mult_us", "us", "lower", "teps on bfs-rmat (bulk) and bfs-mesh (Estimate, dispatch); not serve-mult"},
	{"kernel.estimate_us", "us", "lower", "teps on bfs-mesh"},
	{"kernel.bucket_us", "us", "lower", "teps on bfs-rmat"},
	{"kernel.merge_us", "us", "lower", "teps on bfs-rmat"},
	{"kernel.output_us", "us", "lower", "teps on bfs-rmat"},
	{"kernel.work_per_flop", "ratio", "lower", "teps on bfs-rmat"},
	{"par.idle_ms_per_op", "ms", "lower", "par.speedup on bfs-mesh, without hurting bfs-rmat; only at nproc Ps; end-to-end runs pin one P, where the executor runs inline"},
	{"par.steals_per_op", "count", "lower", "par.speedup on bfs-mesh; only at nproc Ps; end-to-end runs pin one P, where the executor runs inline"},
	{"par.chunks_per_op", "count", "lower", "par.speedup on bfs-mesh; only at nproc Ps; end-to-end runs pin one P, where the executor runs inline"},
	{"par.speedup", "ratio", "higher", "above 1 on bfs-mesh, without falling on bfs-rmat; only at nproc Ps; end-to-end runs pin one P, where the executor runs inline"},
	{"engine.plan_compilations_per_op", "count", "lower", "best_latency_p50_ms on serve-mult"},
	{"http.handler_us", "us", "lower", "best_latency_p50_ms and throughput_rps on serve-mult"},
	{"store.serve_us", "us", "lower", "best_latency_p50_ms and throughput_rps on serve-mult"},
	{"coalesce.fill", "ratio", "higher", "throughput_rps on serve-mult"},
	{"coalesce.batch_mean", "count", "higher", "throughput_rps on serve-mult"},
	{"client.encode_us", "us", "lower", "throughput_rps on serve-mult"},
	{"client.decode_us", "us", "lower", "throughput_rps on serve-mult"},
	{"wire.req_bytes", "bytes", "lower", "throughput_rps on serve-mult"},
	{"wire.resp_bytes", "bytes", "lower", "throughput_rps on serve-mult"},
	{"transport_us", "us", "lower", "throughput_rps on serve-mult"},
	{"program.levels_per_op", "count", "lower", "teps on serve-bfs-program"},
	{"coordinator.self_ms", "ms", "lower", "teps and best_latency_p50_ms on serve-bfs-program only"},
	{"shard.calls_per_op", "count", "lower", "best_latency_p50_ms on serve-bfs-program"},
	{"shard.call_us", "us", "lower", "best_latency_p50_ms on serve-bfs-program"},
	{"shard.band_skew", "ratio", "lower", "best_latency_p50_ms on serve-bfs-program"},
	{"shard.retries", "count", "lower", "must read 0 (error_rate on serve-bfs-program)"},
	{"shard.failovers", "count", "lower", "must read 0 (error_rate on serve-bfs-program)"},
	{"trace.overhead", "ratio", "lower", "none: traced over untraced op time, per workload"},
}

// fingerprint stamps a result with what its wall-clock numbers depend
// on.
type fingerprint struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	CPU        string           `json:"cpu_model"`
	L2         string           `json:"l2_cache"`
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Trace      bool             `json:"trace"`
	Matrices   []matrixSize     `json:"matrices"`
	Samples    map[string]int64 `json:"samples,omitempty"`
}

type matrixSize struct {
	Name string  `json:"name"`
	Rows int     `json:"rows"`
	Cols int     `json:"cols"`
	NNZ  int64   `json:"nnz"`
	MB   float64 `json:"csc_mb"`
}

func sizeOf(name string, a *spmspv.Matrix) matrixSize {
	bytes := 8*len(a.ColPtr) + 4*len(a.RowIdx) + 8*len(a.Val)
	return matrixSize{Name: name, Rows: int(a.NumRows), Cols: int(a.NumCols), NNZ: a.NNZ(), MB: float64(bytes) / 1e6}
}

func newFingerprint(cfg config, mats ...matrixSize) fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		L2:         l2Size(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Matrices:   mats,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l2Size reads CPU 0's level-2 cache size from sysfs.
func l2Size() string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lvl, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lvl)) == "2" {
			if sz, err := os.ReadFile(dir + "size"); err == nil {
				return strings.TrimSpace(string(sz))
			}
		}
	}
	return "unknown"
}

// result is one run's measurements.
type result struct {
	fp        fingerprint
	attempted int
	failed    int
	why       string // why the workload was chosen
	wrong     string // first incorrect output, "" when all were correct
	values    map[string]float64
	report    []string // extra report lines
}

func newResult(fp fingerprint, defs []metricDef) *result {
	r := &result{fp: fp, values: map[string]float64{}}
	for _, d := range defs {
		r.values[d.name] = 0
	}
	return r
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the last stdout line: the end-to-end or per-layer metrics.
func (r *result) line(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := resultLine{Correct: r.wrong == "", Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// printReport writes the human-readable lines before the result line.
func printReport(w io.Writer, cfg config, r *result) {
	fp, _ := json.Marshal(map[string]any{"fingerprint": r.fp})
	fmt.Fprintln(w, string(fp))
	fmt.Fprintf(w, "workload %s: %s\n", cfg.workload, r.why)
	for _, s := range r.report {
		fmt.Fprintln(w, s)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-32s %14.6g %-8s %-6s is better", d.name, r.values[d.name], d.unit, d.better)
		if d.moves != "" {
			line += " should move: " + d.moves
		}
		fmt.Fprintln(w, line)
	}
}

// latencySummary reports the latency percentiles over all of lp's
// samples, each with the number of samples beyond it, the repeats
// behind best, and the error rate.
func latencySummary(r *result, lp loopStats, best repeats) {
	s := append([]time.Duration(nil), lp.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	beyond := func(p float64) int64 { return int64(len(s)) - int64(math.Ceil(p*float64(len(s)))) }
	errRate := 0.0
	if lp.attempted > 0 {
		errRate = float64(lp.failed) / float64(lp.attempted)
	}
	r.fp.Samples = map[string]int64{
		"latency": int64(len(s)), "beyond_p50": beyond(0.5), "beyond_p90": beyond(0.9), "beyond_p99": beyond(0.99),
		"operations": int64(best.keys), "fewest_repeats": int64(best.minReps),
	}
	r.report = append(r.report, fmt.Sprintf("workload %s seed %d: %d attempted, %d failed, %d latency samples, %d distinct operations repeated %d times or more",
		r.fp.Workload, r.fp.Seed, lp.attempted, lp.failed, len(s), best.keys, best.minReps))
	for _, p := range []float64{0.50, 0.90, 0.99} {
		line := fmt.Sprintf("  %-32s %14.6g %-8s samples %d, %d beyond it", fmt.Sprintf("latency_p%.0f_ms", p*100),
			float64(percentile(s, p))/1e6, "ms", len(s), beyond(p))
		if beyond(p) < 10 {
			line += " (fewer than 10: not a supported percentile here)"
		}
		r.report = append(r.report, line)
	}
	r.report = append(r.report, fmt.Sprintf("  %-32s %14.6g %-8s", "error_rate", errRate, "ratio"))
}

// percentile returns the nearest-rank p-quantile of sorted s.
func percentile(s []time.Duration, p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median returns the median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// second collection empties the sync.Pool victim caches the first one
// leaves.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
