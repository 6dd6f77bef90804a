package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bwcs/internal/protocol"
)

// TestParallelForWrapsFailingIndex: the error carries the index that
// failed, in both the serial and the parallel execution paths.
func TestParallelForWrapsFailingIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := parallelFor(50, workers, func(_, i int) error {
			if i == 13 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		if !strings.Contains(err.Error(), "index 13") {
			t.Fatalf("workers=%d: err = %v, want the failing index", workers, err)
		}
	}
}

// TestParallelForFirstErrorWins: when several indices fail, the reported
// error is the first failure that was recorded, and later failures never
// overwrite it. Every failure but the first lingers before it returns, so
// the order this test records is the order parallelFor sees (without
// that, two failing calls could swap between this test's lock and
// parallelFor's: 27 of 20,000 runs).
func TestParallelForFirstErrorWins(t *testing.T) {
	var order []int
	var mu sync.Mutex
	err := parallelFor(40, 4, func(_, i int) error {
		if i%10 == 7 { // indices 7, 17, 27, 37 fail
			mu.Lock()
			order = append(order, i)
			first := len(order) == 1
			mu.Unlock()
			if !first {
				time.Sleep(50 * time.Millisecond)
			}
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatalf("no error returned")
	}
	mu.Lock()
	first := order[0]
	mu.Unlock()
	if want := fmt.Sprintf("experiments: index %d: fail-%d", first, first); err.Error() != want {
		t.Fatalf("err = %q, want the first recorded failure %q", err, want)
	}
}

// TestParallelForDrainsWorkers: after an error, parallelFor still waits
// for every in-flight call to return before it does — no fn invocation
// may still be running when the caller regains control — and no new
// indices are grabbed once the error is recorded.
func TestParallelForDrainsWorkers(t *testing.T) {
	const n = 1000
	var started, finished atomic.Int64
	gate := make(chan struct{})
	err := parallelFor(n, 8, func(_, i int) error {
		started.Add(1)
		defer finished.Add(1)
		if i == 0 {
			// Fail fast while other workers are blocked mid-call, forcing
			// the drain path to actually wait.
			close(gate)
			return errors.New("early failure")
		}
		<-gate
		return nil
	})
	if err == nil {
		t.Fatalf("no error returned")
	}
	s, f := started.Load(), finished.Load()
	if s != f {
		t.Fatalf("parallelFor returned with %d calls still running (%d started, %d finished)", s-f, s, f)
	}
	// The scheduler must have stopped early: with 8 workers and an
	// error on the first index, nearly all of the 1000 indices must
	// never have started.
	if s >= n {
		t.Fatalf("all %d indices ran despite an early error", n)
	}
}

// TestProgressCallbackMonotone: Progress reports done counts 1..Trees in
// order and fires once per tree, however many protocols the call sweeps.
func TestProgressCallbackMonotone(t *testing.T) {
	o := tinyOptions()
	o.Workers = 4
	var mu sync.Mutex
	var calls int
	last := 0
	o.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != o.Trees {
			t.Errorf("total = %d, want %d", total, o.Trees)
		}
		if done != last+1 {
			t.Errorf("done jumped %d -> %d", last, done)
		}
		last = done
		calls++
	}
	protos := []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptible(1)}
	pops, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatalf("RunPopulation: %v", err)
	}
	if calls != o.Trees {
		t.Fatalf("progress calls = %d, want %d", calls, o.Trees)
	}
	if last != o.Trees {
		t.Fatalf("final done = %d, want %d", last, o.Trees)
	}
	// The sweep aggregate must reflect real engine work and deterministic
	// counts: every task in every tree computed exactly once.
	for _, p := range pops {
		wantComputes := int64(o.Trees) * o.Tasks
		if p.Sweep.Engine.ComputesDone != wantComputes {
			t.Fatalf("%v: aggregate ComputesDone = %d, want %d", p.Protocol, p.Sweep.Engine.ComputesDone, wantComputes)
		}
		if p.Sweep.Engine.Events == 0 || p.Sweep.TreesPerSec <= 0 || p.Sweep.Elapsed <= 0 {
			t.Fatalf("%v: sweep metrics not populated: %+v", p.Protocol, p.Sweep)
		}
	}
}

// TestSweepAggregateDeterministic: the engine-side sweep aggregate is a
// pure function of the options, regardless of worker count — except the
// FreeListHits/EventAllocs split, which depends on how warm each
// worker's reused run state is (one worker recycles across all trees;
// six workers start cold six times). Their sum, the total Schedule
// count, must still be deterministic.
func TestSweepAggregateDeterministic(t *testing.T) {
	o := tinyOptions()
	protos := []protocol.Protocol{protocol.Interruptible(3)}
	o.Workers = 1
	serial, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatal(err)
	}
	o.Workers = 6
	parallel, err := RunPopulation(o, protos)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial[0].Sweep.Engine, parallel[0].Sweep.Engine
	if sa, sb := a.FreeListHits+a.EventAllocs, b.FreeListHits+b.EventAllocs; sa != sb {
		t.Fatalf("total Schedule count differs by worker count: %d vs %d", sa, sb)
	}
	a.FreeListHits, a.EventAllocs = 0, 0
	b.FreeListHits, b.EventAllocs = 0, 0
	if a != b {
		t.Fatalf("aggregate metrics differ by worker count:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

// TestTreeMajorIndependentOfWorkers: a worker generates a tree into its
// arena, weighs it once and runs every protocol on it before taking the
// next. Rows, aggregates and the summed engine metrics (Schedule count
// folded, as above) must not depend on how many workers share the trees,
// or on which trees a worker's arena held before, and every row must
// equal a standalone EvaluateTree on a fresh Evaluator.
func TestTreeMajorIndependentOfWorkers(t *testing.T) {
	o := tinyOptions()
	o.Trees = 30
	protos := Fig4Protocols()
	var ref []Population
	for _, workers := range []int{1, 2, 4} {
		o.Workers = workers
		pops, err := RunPopulation(o, protos)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pops {
			m := pops[i].Sweep.Engine
			m.FreeListHits, m.EventAllocs = m.FreeListHits+m.EventAllocs, 0
			pops[i].Sweep = SweepMetrics{Engine: m} // drop the timing fields
		}
		if ref == nil {
			ref = pops
			for pi, p := range protos {
				for i, got := range pops[pi].Outcomes {
					want, _, err := NewEvaluator().EvaluateTree(o, p, i)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%v tree %d: sweep row %+v, standalone evaluation %+v", p, i, got, want)
					}
				}
			}
			continue
		}
		for i := range pops {
			if !reflect.DeepEqual(ref[i], pops[i]) {
				t.Fatalf("%v: population differs between 1 and %d workers:\n%+v\n%+v", protos[i], workers, ref[i], pops[i])
			}
		}
	}
}
