// Command benchmark is the repository's layered benchmark: five
// workloads over both planes (the simulator sweep and the live TCP
// overlay), five end-to-end metrics that every workload reports, and a
// per-layer ledger from a separate traced run. It measures every layer
// from outside, by timing calls into public functions and reading the
// public Node.Stats / Node.Events, and changes nothing else in the repo.
// README.md in this directory says why each workload and metric is here.
//
//	go run ./benchmark                              every workload, untraced
//	go run ./benchmark -trace 1                     plus the traced run of each
//	go run ./benchmark -workload sweep-short        one workload, result as last line
//	go run ./benchmark -compare a.json b.json       judge two result documents
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const defaultSeed = 2003 // the repo's population seed (the paper's year)

// processStart is where setup_s starts counting.
var processStart = time.Now()

// env is what one workload run is given.
type env struct {
	start        time.Time // process start (the smoke test: start of the workload)
	seed         uint64
	seconds      float64 // measured time per run
	trace        bool
	workers      int // GOMAXPROCS and sweep workers
	outDir       string
	tiny         bool // smoke-test sizes
	updateGolden bool
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome is what a workload hands back: raw metric values by name, the
// per-repetition samples behind them, and why any op failed.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string][]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string][]float64{}}
}

// setupReps is how many times a run sets its workload up. setup_s is the
// median, so one cold start (the first process after a build, a binary
// not yet in the page cache) does not decide it.
const setupReps = 5

// timeSetups runs up, the workload's whole set-up, setupReps times (once
// at smoke-test size) and returns how long each took; down undoes all but
// the last and is not timed. The first counts from process start, so
// runtime start-up and flag parsing are in it.
func timeSetups(e env, up func() error, down func()) ([]float64, error) {
	var took []float64
	t0 := e.start
	for i, n := 0, pick(e.tiny, 1, setupReps); i < n; i++ {
		if i > 0 {
			down()
			t0 = time.Now()
		}
		if err := up(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// report fills in the end-to-end metrics: setups is what timeSetups
// returned, m the measured repetitions.
func (o *outcome) report(setups []float64, m *meter, opsPerRep, reachedFrac, rateVsOptimal float64) {
	o.samples["setup_s"] = setups
	o.samples["ops_per_s"] = rates(opsPerRep, m.wall)
	o.samples["max_rss_mb"] = m.rss
	o.metrics["setup_s"] = median(setups)
	o.metrics["ops_per_s"] = median(o.samples["ops_per_s"])
	o.metrics["ic3_reached_frac"] = reachedFrac
	o.metrics["rate_vs_optimal"] = rateVsOptimal
	o.metrics["max_rss_mb"] = median(m.rss)
}

func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in-process and print its result as the last line; empty runs them all, each in a child process")
		seed     = fs.Uint64("seed", defaultSeed, "drives tree populations and payload bytes")
		seconds  = fs.Float64("seconds", 20, "measured time per run")
		trace    = fs.Int("trace", 0, "1 runs with spans on and reports the per-layer metrics")
		workers  = fs.Int("workers", 0, "GOMAXPROCS and sweep workers; 0 means min(nproc, 4)")
		outDir   = fs.String("out", "benchmark/out", "directory for result documents and span files")
		runs     = fs.Int("runs", 1, "with no -workload: how many times to run each workload")
		compare  = fs.Bool("compare", false, "compare two result documents: -compare a.json b.json")
		golden   = fs.Bool("update-golden", false, "rewrite benchmark/golden/<workload>.json (sweep-*, default seed)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result documents")
			return 2
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	nproc := runtime.NumCPU()
	if *workers == 0 {
		*workers = min(nproc, 4)
	}
	if *workers < 1 || *workers > nproc {
		fmt.Fprintf(stderr, "benchmark: workers %d outside 1..nproc (%d)\n", *workers, nproc)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *runs < 1 {
		fmt.Fprintln(stderr, "benchmark: need -seconds > 0, -trace 0 or 1, -runs >= 1")
		return 2
	}
	e := env{start: processStart, seed: *seed, seconds: *seconds, trace: *trace == 1, workers: *workers,
		outDir: *outDir, updateGolden: *golden}
	if *workload == "" {
		return runAll(e, *runs, stdout, stderr)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	res, out, err := runWorkload(w, e)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if err := printOutcome(stdout, w, e, res, out); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process at GOMAXPROCS = workers
// and shapes its outcome into the declared metric set: every end-to-end
// metric untraced, every per-layer metric traced (a layer the workload
// does not exercise reads 0).
func runWorkload(w workloadDef, e env) (result, *outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(e.workers))
	out, err := w.run(e)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]value{}}
	for _, m := range declaredFor(e.trace) {
		res.Metrics[m.Name] = value{out.metrics[m.Name], m.Unit}
	}
	for name := range out.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, nil, fmt.Errorf("workload emitted undeclared metric %q", name)
		}
	}
	return res, out, nil
}

// printOutcome writes the human-readable lines, the per-repetition
// samples (one "samples" line the all-workloads mode stores), and the
// result object as the last line. A metric that is not a number (NaN,
// Inf) cannot be encoded and is an error.
func printOutcome(w io.Writer, def workloadDef, e env, res result, out *outcome) error {
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v GOMAXPROCS %d nproc %d %s\n",
		def.name, e.seed, e.trace, e.workers, runtime.NumCPU(), runtime.Version())
	for _, m := range declaredFor(e.trace) {
		v := res.Metrics[m.Name]
		line := fmt.Sprintf("  %-42s %14.6g %s", m.Name, v.Value, v.Unit)
		if s := out.samples[m.Name]; len(s) > 0 {
			line += fmt.Sprintf("   (median of n=%d, min %.6g, p90 %.6g, max %.6g)",
				len(s), quantile(s, 0), quantile(s, 0.9), quantile(s, 1))
		}
		fmt.Fprintln(w, line)
	}
	errRate := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "  %-42s %14.6g fraction   (ops %d %ss, failed_ops %d)\n",
		"error_rate", errRate, res.Attempted, def.op, res.Failed)
	for _, n := range out.notes {
		fmt.Fprintln(w, "  FAILED:", n)
	}
	if sj, err := json.Marshal(out.samples); err == nil {
		fmt.Fprintf(w, "samples %s\n", sj)
	}
	fmt.Fprintf(w, "%s\n", rj)
	return nil
}

// runRecord is one child run in a result document.
type runRecord struct {
	Workload string               `json:"workload"`
	Trace    bool                 `json:"trace"`
	Seed     uint64               `json:"seed"`
	WallS    float64              `json:"wall_s"`
	Result   result               `json:"result"`
	Samples  map[string][]float64 `json:"samples"`
}

// document is one set of runs, written to -out.
type document struct {
	Schema     string      `json:"schema"` // "bwcs-benchmark/v1"
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Started    string      `json:"started"`
	Runs       []runRecord `json:"runs"`
}

// runAll runs every workload, each run in a fresh child process so CPU
// time and peak RSS belong to that workload alone, and writes one result
// document holding every run made.
func runAll(e env, runs int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	doc := document{Schema: "bwcs-benchmark/v1", Commit: gitCommit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: e.workers, Seed: e.seed, Seconds: e.seconds,
		Started: time.Now().UTC().Format(time.RFC3339)}
	traces := []int{0}
	if e.trace {
		traces = []int{0, 1}
	}
	code := 0
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			for _, tr := range traces {
				rec, err := runChild(exe, w.name, e, tr, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
					return 1
				}
				if !rec.Result.Correct {
					code = 1
				}
				doc.Runs = append(doc.Runs, rec)
			}
		}
	}
	path := filepath.Join(e.outDir, "bench-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	if err := writeJSON(path, doc, false); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote", path)
	return code
}

// runChild re-executes this binary for one workload run, passes its
// output through, and parses the samples and result lines.
func runChild(exe, name string, e env, trace int, stdout, stderr io.Writer) (runRecord, error) {
	var buf strings.Builder
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(e.seed),
		"-seconds", fmt.Sprint(e.seconds), "-trace", fmt.Sprint(trace),
		"-workers", fmt.Sprint(e.workers), "-out", e.outDir)
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return runRecord{}, err
	}
	rec := runRecord{Workload: name, Trace: trace == 1, Seed: e.seed, WallS: time.Since(start).Seconds()}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return runRecord{}, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines {
		if s, ok := strings.CutPrefix(l, "samples "); ok {
			if err := json.Unmarshal([]byte(s), &rec.Samples); err != nil {
				return runRecord{}, fmt.Errorf("samples line: %w", err)
			}
		}
	}
	return rec, nil
}

// gitCommit names the commit measured, or "unknown" outside a git
// checkout (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeJSON writes v to path, creating the directory; span files are
// large and written compact.
func writeJSON(path string, v any, compact bool) error {
	b, err := json.MarshalIndent(v, "", " ")
	if compact {
		b, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
