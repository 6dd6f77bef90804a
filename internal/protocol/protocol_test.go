package protocol

import (
	"strings"
	"testing"
)

func TestConstructors(t *testing.T) {
	p := NonInterruptible(1)
	if p.Interruptible || !p.Grow || p.InitialBuffers != 1 || p.Order != BandwidthCentric {
		t.Fatalf("NonInterruptible wrong: %+v", p)
	}
	if p.Label != "non-IC IB=1" {
		t.Fatalf("label = %q", p.Label)
	}

	p = NonInterruptibleFixed(2)
	if p.Interruptible || p.Grow || p.InitialBuffers != 2 {
		t.Fatalf("NonInterruptibleFixed wrong: %+v", p)
	}

	p = Interruptible(3)
	if !p.Interruptible || p.Grow || p.InitialBuffers != 3 {
		t.Fatalf("Interruptible wrong: %+v", p)
	}
	if p.Label != "IC FB=3" {
		t.Fatalf("label = %q", p.Label)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Protocol
		ok   bool
	}{
		{"non-IC", NonInterruptible(1), true},
		{"non-IC fixed", NonInterruptibleFixed(2), true},
		{"IC 3", Interruptible(3), true},
		{"zero buffers", Protocol{InitialBuffers: 0}, false},
		{"IC with round-robin", Interruptible(2).WithOrder(RoundRobin), false},
		{"IC with random", Interruptible(2).WithOrder(Random), false},
		{"IC with fcfs", Interruptible(2).WithOrder(FCFS), true},
		{"non-IC with random", NonInterruptible(1).WithOrder(Random), true},
		{"unknown order", Protocol{InitialBuffers: 1, Order: Order(99)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.ok != (err == nil) {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tc.p, err, tc.ok)
			}
		})
	}
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{
		BandwidthCentric: "bandwidth-centric",
		ComputeCentric:   "compute-centric",
		FCFS:             "fcfs",
		RoundRobin:       "round-robin",
		Random:           "random",
	} {
		if o.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if !strings.Contains(Order(42).String(), "42") {
		t.Fatalf("unknown order string: %q", Order(42).String())
	}
}

func TestHasPriority(t *testing.T) {
	for o, want := range map[Order]bool{
		BandwidthCentric: true,
		ComputeCentric:   true,
		FCFS:             true,
		RoundRobin:       false,
		Random:           false,
	} {
		if o.HasPriority() != want {
			t.Fatalf("%v.HasPriority() = %v, want %v", o, o.HasPriority(), want)
		}
	}
}

func TestWithOrderLabels(t *testing.T) {
	p := NonInterruptible(1).WithOrder(ComputeCentric)
	if !strings.Contains(p.Label, "compute-centric") {
		t.Fatalf("label not annotated: %q", p.Label)
	}
	// BandwidthCentric is the default and adds no annotation.
	q := NonInterruptible(1).WithOrder(BandwidthCentric)
	if q.Label != "non-IC IB=1" {
		t.Fatalf("default order annotated: %q", q.Label)
	}
}

func TestStringIsLabel(t *testing.T) {
	p := Interruptible(2)
	if p.String() != p.Label {
		t.Fatalf("String != Label")
	}
}

func TestWithDecay(t *testing.T) {
	p := NonInterruptible(1).WithDecay()
	if !p.Decay {
		t.Fatalf("WithDecay wrong: %+v", p)
	}
	if !strings.Contains(p.Label, "decay") {
		t.Fatalf("label not annotated: %q", p.Label)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateDecayRules(t *testing.T) {
	cases := []struct {
		name string
		p    Protocol
	}{
		{"decay without growth", Protocol{InitialBuffers: 1, Decay: true}},
	}
	for _, tc := range cases {
		if tc.p.Validate() == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}
