package lint_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bwcs/internal/lint"
	"bwcs/internal/lint/loader"
)

// hotPathProbes is the audit manifest tying every //bwvet:hotpath
// annotation to the thing that proves it at run time: either
// "runtime:<TestName>" (a testing.AllocsPerRun probe in the annotated
// package, required to exist) or "static:<reason>" (why no runtime probe
// can pin the function to zero allocations). TestHotPathAllocsPinned
// fails when an annotation appears without a manifest entry, when a
// manifest entry names a function that lost its annotation, or when a
// runtime probe named here does not exist — so the static rule, the
// seeds, and the runtime truth cannot drift apart.
var hotPathProbes = map[string]map[string]string{
	"bwcs/internal/sim": {
		"Simulator.Schedule": "runtime:TestHotPathAllocsPinned",
		"Simulator.Cancel":   "runtime:TestHotPathAllocsPinned",
		"Simulator.Step":     "runtime:TestHotPathAllocsPinned",
		"Simulator.Run":      "runtime:TestHotPathAllocsPinned",
		"Simulator.RunUntil": "runtime:TestHotPathAllocsPinned",
		"Simulator.recycle":  "runtime:TestHotPathAllocsPinned",
		"Simulator.push":     "runtime:TestHotPathAllocsPinned",
		"Simulator.remove":   "runtime:TestHotPathAllocsPinned",
		"Simulator.up":       "runtime:TestHotPathAllocsPinned",
		"Simulator.down":     "runtime:TestHotPathAllocsPinned",
		"Simulator.swap":     "runtime:TestHotPathAllocsPinned",
	},
	"bwcs/internal/window": {
		"Series.cmpOptimal":       "runtime:TestHotPathAllocsPinned",
		"Series.span":             "runtime:TestHotPathAllocsPinned",
		"Series.AboveOptimal":     "runtime:TestHotPathAllocsPinned",
		"Series.AtOrAboveOptimal": "runtime:TestHotPathAllocsPinned",
		"Series.Onset":            "runtime:TestHotPathAllocsPinned",
		"Series.OnsetInclusive":   "runtime:TestHotPathAllocsPinned",
		"Series.onset":            "runtime:TestHotPathAllocsPinned",
		"Series.Windows":          "runtime:TestHotPathAllocsPinned",
		"Series.Reached":          "runtime:TestHotPathAllocsPinned",
	},
	"bwcs/internal/metrics": {
		"TimeSeries.Append":     "runtime:TestTimeSeriesAppendZeroAllocs",
		"TimeSeries.downsample": "runtime:TestTimeSeriesAppendZeroAllocs",
	},
	"bwcs/internal/optimal": {
		// The weight pass works in math/big scratch that grows on demand
		// inside big.Rat, so a zero-alloc runtime pin is impossible by
		// design; the source-level discipline (no churn the analyzer can
		// see) is the enforceable half, and the allocation budget is
		// watched through BenchmarkComputeDefaultTree.
		"Weight":                "static:big.Rat scratch grows inside math/big; budget watched via BenchmarkComputeDefaultTree",
		"weightCalc.fork":       "static:big.Rat scratch grows inside math/big; budget watched via BenchmarkComputeDefaultTree",
		"weightCalc.sortedKids": "static:reused kids buffer; exercised under BenchmarkComputeDefaultTree",
	},
	"bwcs/live": {
		"appendFrame":           "runtime:TestHotPathAllocsPinned",
		"decodeFrame":           "runtime:TestHotPathAllocsPinned",
		"appendStringField":     "runtime:TestHotPathAllocsPinned",
		"appendBytesField":      "runtime:TestHotPathAllocsPinned",
		"appendBool":            "runtime:TestHotPathAllocsPinned",
		"appendU64Field":        "runtime:TestHotPathAllocsPinned",
		"readFrame":             "runtime:TestHotPathAllocsPinned",
		"interner.intern":       "runtime:TestHotPathAllocsPinned",
		"frameReader.uvarint":   "runtime:TestHotPathAllocsPinned",
		"frameReader.intField":  "runtime:TestHotPathAllocsPinned",
		"frameReader.raw":       "runtime:TestHotPathAllocsPinned",
		"frameReader.boolField": "runtime:TestHotPathAllocsPinned",
		"taskPool.push":         "runtime:TestHotPathAllocsPinnedPool",
		"taskPool.pop":          "runtime:TestHotPathAllocsPinnedPool",
		"taskPool.pick":         "runtime:TestHotPathAllocsPinnedPool",
		"taskPool.queue":        "runtime:TestHotPathAllocsPinnedPool",
		"appQueue.at":           "runtime:TestHotPathAllocsPinnedPool",
	},
}

func TestHotPathAllocsPinned(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l, err := loader.New(cwd)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for path, probes := range hotPathProbes {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}

		// Every annotation present in the source must have a manifest
		// entry, and vice versa.
		annotated := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !lint.IsHotPathAnnotated(fd) {
					continue
				}
				key := lint.HotPathKey(fd)
				annotated[key] = true
				if _, ok := probes[key]; !ok {
					t.Errorf("%s.%s carries //bwvet:hotpath but has no probe manifest entry", path, key)
				}
			}
		}
		for key := range probes {
			if !annotated[key] {
				t.Errorf("probe manifest lists %s.%s but the function is not annotated (renamed? annotation dropped?)", path, key)
			}
		}

		// The seeds and the manifest must agree: a seeded function with
		// no probe entry would be enforced statically but never proven
		// at run time.
		for _, key := range lint.HotPathSeeds[path] {
			if _, ok := probes[key]; !ok {
				t.Errorf("%s.%s is seeded in HotPathSeeds but missing from the probe manifest", path, key)
			}
		}

		// Runtime probes must actually exist in the package's test files.
		needed := map[string]bool{}
		for _, probe := range probes {
			if name, ok := strings.CutPrefix(probe, "runtime:"); ok {
				needed[name] = true
			}
		}
		if len(needed) == 0 {
			continue
		}
		found := map[string]bool{}
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			t.Fatalf("read %s: %v", pkg.Dir, err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			src, err := os.ReadFile(filepath.Join(pkg.Dir, e.Name()))
			if err != nil {
				t.Fatalf("read %s: %v", e.Name(), err)
			}
			for name := range needed {
				if strings.Contains(string(src), "func "+name+"(") {
					found[name] = true
				}
			}
		}
		for name := range needed {
			if !found[name] {
				t.Errorf("%s: probe manifest names runtime test %s but no _test.go defines it", path, name)
			}
		}
	}
}
