// Package protocol is the paper's autonomous scheduling (Section 3) in
// one place: the policies — Protocol, plus baseline child orders for
// ablation studies — and the per-node core that applies them, Node.
//
// A Protocol is pure policy: which child to serve next, whether an
// in-flight communication may be interrupted, how many task buffers a node
// starts with, and whether and how the buffer pool may grow. A Node is one
// platform node running it: a clock-free state machine over local state
// only, with no I/O and no goroutine. Two drivers feed it inputs and carry
// out its decisions: the discrete-event engine (internal/engine) and a
// live node's owner goroutine (package live). Its rules:
//
//   - request on free: a buffer freed by a local computation or a
//     downstream send asks the parent for one task;
//   - the send port serves the actionable child of highest priority — its
//     shelved transfer, or a pending request when a task is on hand — and,
//     interruptible, shelves its send for a child of strictly higher
//     priority, resuming it later from where it stopped;
//   - growth, without interruption: one more buffer, and its request, on
//     G1 (the buffers ran all empty while a child waits), G2 (a send
//     landed while a child waits and the buffers are empty) and G3 (a
//     computation completed with the buffers empty); optionally capped,
//     and decayed.
//
// The two protocols evaluated in the paper are:
//
//   - NonInterruptible(ib): bandwidth-centric priorities, communications
//     run to completion once started, and nodes grow buffers on the three
//     events of Section 3.1 (all-buffers-empty with a child waiting; send
//     completion with a child waiting and empty buffers; compute
//     completion with empty buffers).
//   - Interruptible(fb): bandwidth-centric priorities with a fixed number
//     of buffers; a request from a higher-priority (faster-communicating)
//     child interrupts an in-flight send to a slower child, which is
//     shelved and later resumed from where it left off.
package protocol

import "fmt"

// Order selects how a node prioritizes children competing for its send
// port.
type Order int

const (
	// BandwidthCentric serves the child with the smallest communication
	// time first. This is the paper's policy: priorities depend only on
	// communication capability, never on compute speed.
	BandwidthCentric Order = iota
	// ComputeCentric serves the child with the smallest task compute time
	// first — a natural-looking but wrong heuristic, kept as a baseline.
	ComputeCentric
	// FCFS serves the child whose oldest outstanding request arrived
	// first.
	FCFS
	// RoundRobin cycles through requesting children.
	RoundRobin
	// Random serves a uniformly random requesting child.
	Random
)

var orderNames = map[Order]string{
	BandwidthCentric: "bandwidth-centric",
	ComputeCentric:   "compute-centric",
	FCFS:             "fcfs",
	RoundRobin:       "round-robin",
	Random:           "random",
}

// String returns the hyphenated lower-case name of the order.
func (o Order) String() string {
	if s, ok := orderNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// HasPriority reports whether the order defines a static priority notion
// under which interruption is meaningful. RoundRobin and Random do not:
// there is no "higher-priority child" to preempt for.
func (o Order) HasPriority() bool {
	switch o {
	case BandwidthCentric, ComputeCentric, FCFS:
		return true
	default:
		return false
	}
}

// Protocol is a complete scheduling policy.
type Protocol struct {
	// Label names the protocol in reports, e.g. "IC FB=3".
	Label string
	// Interruptible enables preemption of in-flight sends by
	// higher-priority requests (Section 3.2).
	Interruptible bool
	// InitialBuffers is the number of task buffers each node starts with
	// (the paper's IB for growth protocols, FB for fixed ones).
	InitialBuffers int
	// Grow enables the three buffer-growth events of Section 3.1.
	Grow bool
	// Order is the child-selection policy; the paper always uses
	// BandwidthCentric, the others are baselines.
	Order Order

	// Decay enables buffer decay, which the paper calls for alongside
	// growth ("a correct protocol must allow for buffer growth and,
	// optimally, buffer decay") but does not specify. The rule implemented
	// here: a node that completes DecayWindow consecutive tasks without
	// its buffers ever running empty releases one grown buffer — the next
	// buffer that frees is retired instead of generating a request.
	// Requires Grow.
	Decay bool
}

// DecayWindow is the number of uninterrupted completions that trigger one
// decay.
const DecayWindow = 16

// NonInterruptible returns the paper's non-IC protocol: bandwidth-centric,
// run-to-completion sends, ib initial buffers, growth enabled and
// unbounded.
func NonInterruptible(ib int) Protocol {
	return Protocol{
		Label:          fmt.Sprintf("non-IC IB=%d", ib),
		InitialBuffers: ib,
		Grow:           true,
	}
}

// NonInterruptibleFixed returns a non-IC protocol with a fixed number of
// buffers and no growth. The paper's adaptability experiment (Figure 7)
// runs "our non-interruptible protocol with two fixed buffers".
func NonInterruptibleFixed(fb int) Protocol {
	return Protocol{
		Label:          fmt.Sprintf("non-IC FB=%d", fb),
		InitialBuffers: fb,
	}
}

// Interruptible returns the paper's IC protocol with fb fixed buffers per
// node. The engine additionally provides the paper's one in-flight slot
// per child to hold partially-completed transmissions.
func Interruptible(fb int) Protocol {
	return Protocol{
		Label:          fmt.Sprintf("IC FB=%d", fb),
		Interruptible:  true,
		InitialBuffers: fb,
	}
}

// WithOrder returns p with the child-selection order replaced and the
// label annotated.
func (p Protocol) WithOrder(o Order) Protocol {
	p.Order = o
	if o != BandwidthCentric {
		p.Label = fmt.Sprintf("%s [%s]", p.Label, o)
	}
	return p
}

// WithDecay returns p with buffer decay enabled: one grown buffer retired
// per DecayWindow completions with the buffers never empty.
func (p Protocol) WithDecay() Protocol {
	p.Decay = true
	p.Label = fmt.Sprintf("%s decay", p.Label)
	return p
}

// Validate reports whether the protocol is internally consistent.
func (p Protocol) Validate() error {
	if p.InitialBuffers < 1 {
		return fmt.Errorf("protocol: initial buffers %d < 1", p.InitialBuffers)
	}
	if p.Interruptible && p.Grow {
		return fmt.Errorf("protocol: the interruptible protocol uses fixed buffers, not growth")
	}
	if p.Decay && !p.Grow {
		return fmt.Errorf("protocol: decay requires growth")
	}
	if p.Interruptible && !p.Order.HasPriority() {
		return fmt.Errorf("protocol: interruption requires a priority order, %v has none", p.Order)
	}
	if _, ok := orderNames[p.Order]; !ok {
		return fmt.Errorf("protocol: unknown order %d", int(p.Order))
	}
	return nil
}

// String returns the protocol's label.
func (p Protocol) String() string { return p.Label }
