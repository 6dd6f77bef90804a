package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func declared(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkJSON
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func asJSON(ms []metricDef) []metricJSON {
	var out []metricJSON
	for _, m := range ms {
		out = append(out, metricJSON(m))
	}
	return out
}

// TestDeclarationsMatch holds BENCHMARK.json equal to the tables the
// program reports from, and the names to the driver's alphabet.
func TestDeclarationsMatch(t *testing.T) {
	d := declared(t)
	if !reflect.DeepEqual(d.EndToEnd, asJSON(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json differs from metrics.go:\n%+v\n%+v", d.EndToEnd, asJSON(endToEnd))
	}
	if !reflect.DeepEqual(d.PerLayer, asJSON(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json differs from metrics.go")
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(d.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q", i, d.Workloads[i].Name, w.name)
		}
		check(w.name)
	}
	for _, m := range append(asJSON(endToEnd), asJSON(perLayer)...) {
		check(m.Name)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that exactly the declared metrics come out, finite and with the
// declared unit, and that the outputs were judged correct.
func TestSmoke(t *testing.T) {
	d := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			e := env{start: time.Now(), seed: 7, seconds: 0.2, trace: trace, workers: 1, outDir: t.TempDir(), tiny: true}
			res, out, err := runWorkload(w, e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, trace, res.Correct, res.Attempted, res.Failed, out.notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s is %v", w.name, m.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v, must be positive", w.name, m.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestSpread pins the quartile spread to Python's
// statistics.quantiles(xs, n=4), which the acceptance rule is stated in.
func TestSpread(t *testing.T) {
	// quantiles([1,2,4,8,16,32,64,128,256,512], n=4) = [3.5, 24.0, 160.0]
	xs := []float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	if got, want := spread(xs), (160.0-3.5)/24.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestCompare checks the verdicts on made-up documents: ok within the
// bound, worse beyond it, unresolved when the runs of one side disagree
// by more than the bound or are fewer than two, worse when b lacks what a
// has, and the exact metric judged without its bound at equal seeds.
func TestCompare(t *testing.T) {
	doc := func(seed uint64, reached float64, rates ...float64) string {
		d := document{Seed: seed}
		for _, w := range workloads {
			for _, r := range rates {
				ms := map[string]value{}
				for _, m := range endToEnd {
					ms[m.Name] = value{1, m.Unit}
				}
				ms["ops_per_s"] = value{r, "op/s"}
				ms["ic3_reached_frac"] = value{reached, "fraction"}
				d.Runs = append(d.Runs, runRecord{Workload: w.name, Seed: seed,
					Result: result{Correct: true, Attempted: 1, Metrics: ms}})
			}
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := writeJSON(path, d, false); err != nil {
			t.Fatal(err)
		}
		return path
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := writeJSON(empty, document{}, false); err != nil {
		t.Fatal(err)
	}
	base := doc(1, 0.75, 100, 101, 102, 103)
	for _, c := range []struct {
		name, b string
		code    int
		verdict string
	}{
		{"ok", doc(1, 0.75, 95, 96, 97, 98), 0, ""},
		{"worse", doc(1, 0.75, 60, 61, 62, 63), 1, "worse"},
		{"unresolved", doc(1, 0.75, 50, 80, 110, 140), 0, "unresolved"},
		{"single run", doc(1, 0.75, 100), 0, "unresolved (n<2)"},
		{"missing in b", empty, 1, "worse (missing in b)"},
		{"exact, same seed", doc(1, 0.74, 100, 101, 102, 103), 1, "worse (model change)"},
		{"exact, other seed", doc(2, 0.74, 100, 101, 102, 103), 0, ""},
	} {
		var out strings.Builder
		if got := compareDocs(base, c.b, &out, io.Discard); got != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.code, out.String())
		}
		if c.verdict != "" && !strings.Contains(out.String(), c.verdict+"\n") {
			t.Errorf("%s: no verdict %q in\n%s", c.name, c.verdict, out.String())
		}
	}
	if got := compareDocs(empty, base, io.Discard, io.Discard); got != 2 {
		t.Errorf("incomplete a: exit code %d, want 2", got)
	}
}
