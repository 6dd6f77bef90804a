package bwcs

// One benchmark per table and figure of the paper's evaluation, each
// regenerating a scaled-down version of the corresponding experiment (the
// bwexp command runs them at any scale, including the paper's full
// 25,000×10,000 sweep). The per-op metrics make harness-level performance
// regressions visible; the experiment *results* live in EXPERIMENTS.md.

import (
	"io"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/experiments"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
)

// benchOptions keeps every figure/table benchmark at a size that runs in
// milliseconds per iteration while preserving the experiment's structure.
func benchOptions() experiments.Options {
	return experiments.Options{
		Trees:     16,
		Tasks:     900,
		Threshold: 100,
		Seed:      2003,
		Params:    randtree.Params{MinNodes: 10, MaxNodes: 200, MinComm: 1, MaxComm: 100, Comp: 4000},
	}
}

func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	f4, err := experiments.Fig4(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(f4)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Trees = 6 // four classes × two protocols inside
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Trees = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	f4, err := experiments.Fig4(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(f4)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(1000, 200)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Trees = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationPolicy(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInterrupt(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Trees = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationInterrupt(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateDefaultTree measures the raw engine: one paper-scale
// random tree, 10,000 tasks, the headline IC FB=3 protocol.
func BenchmarkSimulateDefaultTree(b *testing.B) {
	tr := randtree.TreeAt(randtree.Defaults(), 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: 10_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateNonIC measures the growth protocol on the same tree.
func BenchmarkSimulateNonIC(b *testing.B) {
	tr := randtree.TreeAt(randtree.Defaults(), 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.NonInterruptible(1), Tasks: 10_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures the full public-API path: simulate, compute
// the optimal rate, and run the window analysis.
func BenchmarkEvaluate(b *testing.B) {
	tr := GenerateTree(DefaultTreeParams(), 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(tr, IC(3), 4000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDecay(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Trees = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationDecay(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChurn(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	o.Trees = 6
	for i := 0; i < b.N; i++ {
		r, err := experiments.Churn(o, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
