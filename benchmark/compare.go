package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareDocs judges document b (the change) against a (the parent): per
// workload and end-to-end metric it prints both medians over the
// untraced runs, by how much b is worse, the metric's bound, and a
// verdict:
//
//	ok          b's median is no worse than a's by more than the bound
//	worse       it is, or b failed ops, or b lacks runs a has, or a
//	            metric that is exact at one seed is lower at all
//	unresolved  a side has fewer than two runs, or the spread between the
//	            runs of one side is wider than the bound, so the pair says
//	            nothing either way, unless every run of b reads better
//	            than every run of a
//
// Exit code 1 on any "worse", 2 when a itself is incomplete.
func compareDocs(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readDoc(pathA)
	b, errB := readDoc(pathB)
	if errA != nil || errB != nil {
		fmt.Fprintln(stderr, "benchmark:", errA, errB)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s commit %s seed %d (%s, GOMAXPROCS %d)\nb: %s commit %s seed %d (%s, GOMAXPROCS %d)\n",
		pathA, a.Commit, a.Seed, a.GoVersion, a.GOMAXPROCS, pathB, b.Commit, b.Seed, b.GoVersion, b.GOMAXPROCS)
	fmt.Fprintf(stdout, "%-14s %-17s %4s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "n", "median a", "median b", "worse by", "spread", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, _ := a.values(w.name, m.Name)
			vb, failed := b.values(w.name, m.Name)
			if len(va) == 0 {
				fmt.Fprintf(stderr, "benchmark: %s has no untraced run of %s with %s\n", pathA, w.name, m.Name)
				return 2
			}
			if len(vb) == 0 {
				fmt.Fprintf(stdout, "%-14s %-17s %4d %12.6g %12s %8s %7s %6.1f%%  worse (missing in b)\n",
					w.name, m.Name, 0, median(va), "-", "-", "-", 100*m.Bound)
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			n := min(len(va), len(vb))
			verdict := "ok"
			switch {
			case failed > 0:
				verdict, code = fmt.Sprintf("worse (%d failed ops)", failed), 1
			case exactMetrics[m.Name] && a.Seed == b.Seed:
				// The bound is for other seeds; here any loss is a model change.
				switch {
				case sp != 0:
					verdict, code = "worse (differs between runs of one seed)", 1
				case worse > 0:
					verdict, code = "worse (model change)", 1
				case worse < 0:
					verdict = "ok (model change)"
				}
			case n < 2:
				verdict = "unresolved (n<2)"
			case sp > m.Bound && !allBetter(va, vb, m.Better):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, code = "worse", 1
			}
			fmt.Fprintf(stdout, "%-14s %-17s %4d %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w.name, m.Name, n, ma, mb, 100*worse, 100*sp, 100*m.Bound, verdict)
		}
	}
	return code
}

func readDoc(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// values collects one metric over the untraced runs of a workload, and
// the ops those runs failed.
func (d *document) values(workload, metric string) (vs []float64, failed int64) {
	for _, r := range d.Runs {
		if v, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vs = append(vs, v.Value)
			failed += r.Result.Failed
		}
	}
	return vs, failed
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, better string) bool {
	if better == "higher" {
		return quantile(b, 0) > quantile(a, 1)
	}
	return quantile(b, 1) < quantile(a, 0)
}
