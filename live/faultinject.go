package live

import (
	"sync"
	"time"
)

// This file is the deterministic fault-injection harness for the live
// runtime. A FaultPlan is a script of link failures — drop a frame, delay
// it, or sever the connection — attached to one node with WithFaultPlan.
// Faults fire at exact points in the node's frame sequence (the After'th
// matching frame on a named link), so recovery paths — requeue, reconnect
// with backoff, resume from the offered offset — are testable
// in-process with no real network misbehavior required.

// FrameKind selects wire frames in a FaultRule. The values mirror the
// wire protocol's message kinds; FrameAny matches every frame.
type FrameKind uint8

const (
	FrameAny       FrameKind = 0
	FrameHello     FrameKind = FrameKind(kindHello)
	FrameRequest   FrameKind = FrameKind(kindRequest)
	FrameChunk     FrameKind = FrameKind(kindChunk)
	FrameResult    FrameKind = FrameKind(kindResult)
	FrameShutdown  FrameKind = FrameKind(kindShutdown)
	FrameHeartbeat FrameKind = FrameKind(kindHeartbeat)
	FrameHelloAck  FrameKind = FrameKind(kindHelloAck)
	FrameGoodbye   FrameKind = FrameKind(kindGoodbye)
	FrameResultAck FrameKind = FrameKind(kindResultAck)
)

// FaultDir selects which side of the node's connection a rule watches.
type FaultDir uint8

const (
	// FaultBoth matches frames in either direction.
	FaultBoth FaultDir = iota
	// FaultSend matches frames this node writes.
	FaultSend
	// FaultRecv matches frames this node reads.
	FaultRecv
)

// FaultOp is what happens when a rule fires.
type FaultOp uint8

const (
	faultNone FaultOp = iota
	// FaultDrop silently discards the frame (send: never written; recv:
	// never delivered).
	FaultDrop
	// FaultDelay stalls the frame by the rule's Delay before it proceeds.
	FaultDelay
	// FaultSever closes the connection mid-protocol, as a crash or
	// network partition would; the node's normal recovery machinery
	// (requeue, reconnect) takes over.
	FaultSever
)

// FaultRule scripts one fault. Zero-valued selectors are wildcards: an
// empty Link matches every link, FrameAny every frame kind, FaultBoth
// both directions.
type FaultRule struct {
	// Link names the remote end of the connection the rule watches: a
	// child's name, or "parent" for the uplink. Empty matches any link.
	Link string
	// Dir restricts the rule to frames sent or received by this node.
	Dir FaultDir
	// Kind restricts the rule to one frame kind.
	Kind FrameKind
	// After fires the rule on the After'th matching frame (1-based);
	// 0 means the first.
	After int
	// Repeat makes the rule fire on every matching frame from After
	// onward instead of exactly once.
	Repeat bool
	// Op is the fault to inject.
	Op FaultOp
	// Delay is the stall duration for FaultDelay.
	Delay time.Duration
}

// FaultPlan is a deterministic script of injected faults for one node.
// Install it with WithFaultPlan; it is consulted on every frame the node
// sends or receives. A nil *FaultPlan injects nothing.
type FaultPlan struct {
	mu    sync.Mutex
	rules []faultRuleState
}

type faultRuleState struct {
	FaultRule
	seen  int
	fired bool
}

// NewFaultPlan builds a plan from rules; rules are evaluated in order and
// the first one that fires on a frame decides its fate.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	p := &FaultPlan{rules: make([]faultRuleState, len(rules))}
	for i, r := range rules {
		if r.After < 1 {
			r.After = 1
		}
		p.rules[i].FaultRule = r
	}
	return p
}

// Pending reports how many rules have not fired yet — zero means the
// script ran to completion (Repeat rules count as fired after their first
// match).
func (p *FaultPlan) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.rules {
		if !p.rules[i].fired {
			n++
		}
	}
	return n
}

// decide matches one frame against the script and returns the fault to
// inject, if any. A conn passes its close as cut, run before the lock is
// released: Pending never counts a sever whose link is still open.
func (p *FaultPlan) decide(dir FaultDir, link string, kind FrameKind, cut ...func()) (FaultOp, time.Duration) {
	if p == nil {
		return faultNone, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.rules {
		r := &p.rules[i]
		if r.fired && !r.Repeat {
			continue
		}
		if r.Link != "" && r.Link != link {
			continue
		}
		if r.Dir != FaultBoth && r.Dir != dir {
			continue
		}
		if r.Kind != FrameAny && r.Kind != kind {
			continue
		}
		r.seen++
		if r.seen < r.After {
			continue
		}
		if r.fired = true; r.Op == FaultSever && len(cut) > 0 {
			cut[0]()
		}
		return r.Op, r.Delay
	}
	return faultNone, 0
}
