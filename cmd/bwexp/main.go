// Command bwexp reproduces the paper's evaluation: every figure and table
// of Section 4, plus the ablation and churn studies described in
// DESIGN.md.
//
// Usage:
//
//	bwexp -exp fig4                 # one experiment at default scale
//	bwexp -exp all -trees 2000      # the whole evaluation, larger population
//	bwexp -exp fig4 -paper          # the paper's full 25,000×10,000 scale
//	bwexp -exp paperscale -json paperscale.json   # full-scale sweep + artifact
//	bwexp -exp fig4 -cpuprofile cpu.pb.gz   # profile a sweep (also -memprofile, -trace)
//
// The experiment ids are the rows of the experiments table below
// ("bwexp -h" lists them). Figure 6 and Table 1 reuse Figure 4's
// populations, so "-exp all" runs those simulations once; paperscale
// runs Figure 4 + Table 1 at the paper's full scale and is not part of
// "all".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"time"

	"bwcs/internal/experiments"
)

// writeCSVs writes each population into dir as prefix_<protocol>.csv.
func writeCSVs(dir, prefix string, pops []experiments.Population) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range pops {
		p := &pops[i]
		name := fmt.Sprintf("%s_%s.csv", prefix, sanitize(p.Protocol.Label))
		if err := writeFile(dir, name, func(w io.Writer) error {
			return populationCSV(w, p)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(dir, name string, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSONPath writes v as indented JSON to path, creating parent
// directories as needed.
func writeJSONPath(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return strings.ToLower(string(out))
}

// renderer is the one thing every experiment result can do.
type renderer interface{ Render(io.Writer) error }

// env is what an experiment's run function reads: the scaled options,
// the raw flags a few experiments consult for their own defaults, and
// the Figure 4 run that Table 1 and Figure 6 share.
type env struct {
	o     experiments.Options
	trees int   // -trees as given (0 = unset)
	tasks int64 // -tasks as given (0 = unset)
	paper bool
	churn int
	f4    *experiments.Fig4Result // set by the first fig4 call
}

// fig4 runs Figure 4 once; its populations also back Table 1 and
// Figure 6.
func (e *env) fig4() (*experiments.Fig4Result, error) {
	if e.f4 != nil {
		return e.f4, nil
	}
	var err error
	e.f4, err = experiments.Fig4(e.o)
	return e.f4, err
}

type experiment struct {
	id    string
	inAll bool // part of "-exp all"
	run   func(e *env) (renderer, error)
	// flag names the flag whose value write takes, for an experiment with
	// a machine-readable form: "csv" (a directory) or "json" (a path).
	flag  string
	write func(r renderer, dest string) error
}

// experimentTable is the single list of experiment ids: the -exp help
// text, "all", dispatch, the artifact flags and TestEachExperimentRenders
// all range over it. "all" runs the inAll rows in this order.
var experimentTable = []experiment{
	{id: "fig3", inAll: true, run: func(e *env) (renderer, error) { return experiments.Fig3(e.o) }},
	{id: "fig4", inAll: true, run: func(e *env) (renderer, error) { return e.fig4() },
		flag: "csv", write: func(r renderer, dir string) error {
			pops := r.(*experiments.Fig4Result).Populations
			if err := writeCSVs(dir, "fig4", pops); err != nil {
				return err
			}
			return writeFile(dir, "fig4.json", func(w io.Writer) error { return populationsJSON(w, pops) })
		}},
	{id: "table1", inAll: true, run: func(e *env) (renderer, error) {
		r4, err := e.fig4()
		if err != nil {
			return nil, err
		}
		return experiments.Table1(r4)
	}},
	{id: "fig6", inAll: true, run: func(e *env) (renderer, error) {
		r4, err := e.fig4()
		if err != nil {
			return nil, err
		}
		return experiments.Fig6(r4)
	}},
	{id: "fig5", inAll: true, run: func(e *env) (renderer, error) { return experiments.Fig5(e.o) },
		flag: "csv", write: func(r renderer, dir string) error {
			for _, cls := range r.(*experiments.Fig5Result).Classes {
				if err := writeCSVs(dir, fmt.Sprintf("fig5_x%d", cls.X), cls.Populations); err != nil {
					return err
				}
			}
			return nil
		}},
	{id: "table2", inAll: true, run: func(e *env) (renderer, error) {
		o := e.o
		if e.tasks == 0 && o.Tasks < 4000 {
			o.Tasks = 4000 // the paper's Table 2 horizon
		}
		return experiments.Table2(o)
	}},
	{id: "paperscale", run: func(e *env) (renderer, error) {
		// Full paper scale by default — 25,000 trees × 10,000 tasks —
		// unless the caller sized the sweep explicitly.
		o := e.o
		if !e.paper {
			pp := experiments.Paper()
			if e.trees == 0 {
				o.Trees = pp.Trees
			}
			if e.tasks == 0 {
				o.Tasks = pp.Tasks
			}
		}
		return experiments.PaperScale(o)
	}, flag: "json", write: func(r renderer, path string) error {
		return writeJSONPath(path, r.(*experiments.PaperScaleResult).JSON())
	}},
	{id: "fig7", inAll: true, run: func(e *env) (renderer, error) { return experiments.Fig7(e.tasks, 0) }},
	{id: "reconverge", inAll: true, run: func(e *env) (renderer, error) { return experiments.Reconverge(e.tasks, 0) },
		flag: "json", write: func(r renderer, path string) error {
			return writeJSONPath(path, r.(*experiments.ReconvergeResult).JSON())
		}},
	{id: "ablation-policy", inAll: true, run: func(e *env) (renderer, error) { return experiments.AblationPolicy(e.o) }},
	{id: "ablation-interrupt", inAll: true, run: func(e *env) (renderer, error) { return experiments.AblationInterrupt(e.o) }},
	{id: "ablation-decay", inAll: true, run: func(e *env) (renderer, error) { return experiments.AblationDecay(e.o) }},
	{id: "churn", inAll: true, run: func(e *env) (renderer, error) { return experiments.Churn(e.o, e.churn) }},
}

// experimentIDs returns the table's ids in order, every one or only the
// rows "all" runs.
func experimentIDs(onlyAll bool) []string {
	var ids []string
	for _, x := range experimentTable {
		if x.inAll || !onlyAll {
			ids = append(ids, x.id)
		}
	}
	return ids
}

// artifactFlag yields, in table order, each experiment that has a
// machine-readable form and the flag that writes it.
func artifactFlag(yield func(id, flag string) bool) {
	for _, x := range experimentTable {
		if x.flag != "" && !yield(x.id, x.flag) {
			return
		}
	}
}

// withArtifact returns those of ids whose artifact the given flag writes.
func withArtifact(flag string, ids []string) []string {
	var out []string
	for id, f := range artifactFlag {
		if f == flag && slices.Contains(ids, id) {
			out = append(out, id)
		}
	}
	return out
}

// checkArtifactFlags rejects, before anything runs, a -csv or -json that
// no selected experiment can honour (the sweep would run and write
// nothing) and a -json path that two would write one over the other.
// Two experiments may share a -csv directory: their file names differ.
func checkArtifactFlags(ids []string, csvDir, jsonOut string) error {
	for _, f := range []struct{ flag, value string }{{"csv", csvDir}, {"json", jsonOut}} {
		if f.value == "" {
			continue
		}
		got := withArtifact(f.flag, ids)
		if len(got) == 0 {
			return fmt.Errorf("-%s: none of %s has a %s artifact (only %s do)", f.flag,
				strings.Join(ids, ","), strings.ToUpper(f.flag), strings.Join(withArtifact(f.flag, experimentIDs(false)), ", "))
		}
		if f.flag == "json" && len(got) > 1 {
			return fmt.Errorf("-json %s: %s would each overwrite it; run them one at a time", f.value, strings.Join(got, " and "))
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bwexp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bwexp", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment id, or several separated by commas: "+strings.Join(experimentIDs(false), " ")+" all")
		trees     = fs.Int("trees", 0, "population size (0 = experiment default)")
		tasks     = fs.Int64("tasks", 0, "application size (0 = experiment default)")
		seed      = fs.Uint64("seed", 0, "generator seed (0 = default)")
		threshold = fs.Int("threshold", -1, "onset window threshold (-1 = paper's 300)")
		workers   = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		churn     = fs.Int("churn", 6, "churn events per run for the churn study")
		paper     = fs.Bool("paper", false, "use the paper's full scale (25000 trees, 10000 tasks)")
		quiet     = fs.Bool("q", false, "suppress progress timing")
		csvDir    = fs.String("csv", "", "also write machine-readable results (CSV/JSON) into this directory: "+strings.Join(withArtifact("csv", experimentIDs(false)), ", "))
		jsonOut   = fs.String("json", "", "write the experiment's JSON artifact to this path: "+strings.Join(withArtifact("json", experimentIDs(false)), ", "))

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trees < 0 {
		return fmt.Errorf("-trees %d < 0 (0 = experiment default)", *trees)
	}
	if *tasks < 0 {
		return fmt.Errorf("-tasks %d < 0 (0 = experiment default)", *tasks)
	}
	if *threshold < -1 {
		return fmt.Errorf("-threshold %d < -1 (-1 = paper's 300)", *threshold)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d < 0 (0 = GOMAXPROCS)", *workers)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = experimentIDs(true)
	}
	selected := make([]experiment, len(ids))
	for i, id := range ids {
		x := slices.IndexFunc(experimentTable, func(x experiment) bool { return x.id == id })
		if x < 0 {
			return fmt.Errorf("unknown experiment %q", id)
		}
		selected[i] = experimentTable[x]
	}
	if err := checkArtifactFlags(ids, *csvDir, *jsonOut); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bwexp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bwexp: memprofile:", err)
			}
		}()
	}

	o := experiments.Default()
	if *paper {
		o = experiments.Paper()
	}
	if *trees > 0 {
		o.Trees = *trees
	}
	if *tasks > 0 {
		o.Tasks = *tasks
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	if *threshold >= 0 {
		o.Threshold = *threshold
	}
	if *workers > 0 {
		o.Workers = *workers
	}

	e := &env{trees: *trees, tasks: *tasks, paper: *paper, churn: *churn}
	dests := map[string]string{"csv": *csvDir, "json": *jsonOut} // artifact flag → its value
	for i, x := range selected {
		if i > 0 {
			fmt.Fprintln(out, "\n"+strings.Repeat("=", 78)+"\n")
		}
		if *quiet {
			o.Progress = nil
		} else {
			o.Progress = progressFunc(x.id)
		}
		e.o = o
		start := time.Now()
		r, err := x.run(e)
		if err == nil {
			err = r.Render(out)
		}
		if dest := dests[x.flag]; err == nil && dest != "" {
			err = x.write(r, dest)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", x.id, err)
		}
		if !*quiet {
			fmt.Fprintf(out, "\n[%s completed in %v]\n", x.id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// progressFunc returns an experiments progress callback that rewrites a
// single stderr line per sweep (a tree counts once every protocol of the
// sweep has run it), throttled so tight sweeps don't spend their time
// printing. Progress goes to stderr so redirected stdout stays clean
// experiment output.
func progressFunc(label string) func(done, total int) {
	var last time.Time
	start := time.Now()
	return func(done, total int) {
		now := time.Now()
		if done < total && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		rate := float64(done) / time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d trees (%.0f trees/sec)   ", label, done, total, rate)
		if done == total {
			fmt.Fprintln(os.Stderr)
			start = time.Now() // next sweep (same experiment) restarts the rate
		}
	}
}
