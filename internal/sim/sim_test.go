package sim

import (
	"math/rand/v2"
	"testing"
)

// recorder collects fired events for assertions.
type recorder struct {
	fired  []record
	sim    *Simulator
	onFire func(e *Event)
}

type record struct {
	at   Time
	kind Kind
	node int32
}

func (r *recorder) Handle(e *Event) {
	r.fired = append(r.fired, record{r.sim.Now(), e.Kind, e.Node})
	if r.onFire != nil {
		r.onFire(e)
	}
}

func newSim() (*Simulator, *recorder) {
	r := &recorder{}
	s := New(r)
	r.sim = s
	return s, r
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	s, _ := newSim()
	defer func() {
		if recover() == nil {
			t.Fatalf("negative delay did not panic")
		}
	}()
	s.Schedule(-1, 0, 0, 0)
}

func TestFiresInTimeOrder(t *testing.T) {
	s, r := newSim()
	s.Schedule(30, 3, 0, 0)
	s.Schedule(10, 1, 0, 0)
	s.Schedule(20, 2, 0, 0)
	s.Run(0)
	if len(r.fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(r.fired))
	}
	for i, want := range []Time{10, 20, 30} {
		if r.fired[i].at != want || r.fired[i].kind != Kind(i+1) {
			t.Fatalf("event %d fired at %d kind %d", i, r.fired[i].at, r.fired[i].kind)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
	if s.Steps() != 3 {
		t.Fatalf("Steps = %d, want 3", s.Steps())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s, r := newSim()
	s.Schedule(5, 1, 0, 0)
	s.Schedule(5, 2, 0, 0)
	s.Schedule(5, 3, 0, 0)
	s.Run(0)
	for i := range r.fired {
		if r.fired[i].kind != Kind(i+1) {
			t.Fatalf("same-time events fired out of scheduling order: %v", r.fired)
		}
	}
}

func TestZeroDelayFiresAtNow(t *testing.T) {
	s, r := newSim()
	r.onFire = func(e *Event) {
		if e.Kind == 1 {
			s.Schedule(0, 2, 0, 0)
		}
	}
	s.Schedule(7, 1, 0, 0)
	s.Run(0)
	if len(r.fired) != 2 || r.fired[1].at != 7 {
		t.Fatalf("zero-delay chain wrong: %v", r.fired)
	}
}

func TestCancelReturnsRemaining(t *testing.T) {
	s, r := newSim()
	e := s.Schedule(50, 1, 0, 0)
	s.Schedule(10, 2, 0, 0)
	s.Run(1) // fire the kind-2 event at t=10
	if got := s.Cancel(e); got != 40 {
		t.Fatalf("Cancel remaining = %d, want 40", got)
	}
	s.Run(0)
	for _, f := range r.fired {
		if f.kind == 1 {
			t.Fatalf("cancelled event fired")
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

func TestCancelTwicePanics(t *testing.T) {
	s, _ := newSim()
	e := s.Schedule(5, 1, 0, 0)
	s.Cancel(e)
	defer func() {
		if recover() == nil {
			t.Fatalf("double cancel did not panic")
		}
	}()
	s.Cancel(e)
}

func TestRunMaxSteps(t *testing.T) {
	s, r := newSim()
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i), 0, int32(i), 0)
	}
	if n := s.Run(4); n != 4 {
		t.Fatalf("Run(4) fired %d", n)
	}
	if len(r.fired) != 4 || s.Pending() != 6 {
		t.Fatalf("fired %d pending %d", len(r.fired), s.Pending())
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	s, r := newSim()
	count := 0
	r.onFire = func(e *Event) {
		if count < 5 {
			count++
			s.Schedule(3, Kind(count), 0, 0)
		}
	}
	s.Schedule(1, 0, 0, 0)
	s.Run(0)
	if len(r.fired) != 6 {
		t.Fatalf("fired %d, want 6", len(r.fired))
	}
	if last := r.fired[5].at; last != 16 {
		t.Fatalf("last fired at %d, want 16", last)
	}
}

func TestEventRecyclingKeepsPayloadCorrect(t *testing.T) {
	// Recycled events must carry the new payload, not the old one.
	s, r := newSim()
	e := s.Schedule(5, 9, 42, 7)
	s.Cancel(e)
	s.Schedule(5, 1, 1, 2) // likely reuses the same allocation
	s.Run(0)
	if len(r.fired) != 1 || r.fired[0].kind != 1 || r.fired[0].node != 1 {
		t.Fatalf("recycled event carried stale payload: %+v", r.fired)
	}
}

// TestRandomizedAgainstReferenceModel drives the kernel with random
// operation strings — schedules with delays below, at and beyond each ring
// size, cancels, single steps, bounded runs and Reset — against
// the reference model, and requires the trials together to have reached
// every corner the two-store queue has.
func TestRandomizedAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	var cov [6]int
	for trial := 0; trial < 60; trial++ {
		ops := make([]byte, 1500)
		for i := range ops {
			ops[i] = byte(rng.UintN(256))
		}
		d := newDiffer(t)
		d.run(ops)
		for i, n := range []int{d.cov.grows, d.cov.nearCancels, d.cov.farCancels, d.cov.farFires, d.cov.splitTies, d.cov.fullResets} {
			cov[i] += n
		}
	}
	for i, what := range []string{"ring growth", "cancel in the ring", "cancel in the far store", "fire from the far store",
		"same-time events split across the stores", "Reset with events in both stores"} {
		if cov[i] == 0 {
			t.Errorf("no trial exercised: %s", what)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []record {
		s, r := newSim()
		rng := rand.New(rand.NewPCG(1, 1))
		r.onFire = func(e *Event) {
			if s.Steps() < 200 {
				s.Schedule(Time(rng.IntN(20)), Kind(rng.IntN(5)), int32(rng.IntN(10)), 0)
			}
		}
		s.Schedule(0, 0, 0, 0)
		s.Run(0)
		return r.fired
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

type nopHandler struct{}

func (nopHandler) Handle(*Event) {}

func BenchmarkScheduleFire(b *testing.B) {
	s := New(nopHandler{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(i%64), 0, 0, 0)
		if i%8 == 7 {
			s.Run(8)
		}
	}
	s.Run(0)
}

func BenchmarkScheduleCancel(b *testing.B) {
	s := New(nopHandler{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(Time(i%128), 0, 0, 0)
		s.Cancel(e)
	}
}
