package live

// Tests for one write per wake-up: the uplink writer that carries requests
// and results in one batch, the send-port turn that serves every pending
// request of a child in one write, and the result acks that ride it as one
// frame.

import (
	"fmt"
	"testing"
	"time"
)

// TestSteadyStateWritesPerTask pins the syscall and frame cost of a task
// on overlay-small's shape — a gated root, two workers of three buffers,
// 10,000 tasks of 256 B: at most half a write per task up (summed over the
// workers) and half down, and at most three frames per task over the
// overlay (chunk, result, a share of a request and of a result ack, and
// heartbeats). Coalescing must not change what crosses a link: every
// request a worker counts is on the wire, every result is acked, and every
// task a worker received has its result sent after the receipt.
func TestSteadyStateWritesPerTask(t *testing.T) {
	const (
		tasks   = 10_000
		buffers = 3
	)
	g := &rootGate{}
	root := startGatedRoot(t, g, WithBuffers(buffers), WithRecorderCapacity(1<<16))
	var ws []*Node
	for _, name := range []string{"w1", "w2"} {
		ws = append(ws, startNode(t, name,
			WithParent(root.Addr()), WithBuffers(buffers),
			WithCompute(g.worker), WithRecorderCapacity(1<<16),
		))
	}
	nodes := append([]*Node{root}, ws...)
	counters := func() (up, down, frames int64) {
		for _, w := range ws {
			up += w.wireCtr.writes.Load()
		}
		for _, n := range nodes {
			frames += n.wireCtr.framesSent.Load()
		}
		return up, root.wireCtr.writes.Load(), frames
	}

	up0, down0, frames0 := counters()
	g.arm(tasks)
	results, err := runWithin(root, makeTasks(tasks, 256), 2*time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	// The last results' acks race Run's return.
	waitFor(t, "every result to be acked", func() bool {
		var computed, acked int64
		for _, w := range ws {
			s := w.Stats()
			computed, acked = computed+s.Computed, acked+s.ResultAcks
		}
		return computed >= tasks-1 && acked == computed
	})
	up1, down1, frames1 := counters()
	up, down, frames := float64(up1-up0)/tasks, float64(down1-down0)/tasks, float64(frames1-frames0)/tasks
	t.Logf("%d tasks: %.3f writes up, %.3f down, %.3f frames per task", tasks, up, down, frames)
	if up > 0.5 || down > 0.5 {
		t.Errorf("%.3f writes per task up and %.3f down, want at most 0.5 each way", up, down)
	}
	if frames > 3.0 {
		t.Errorf("%.3f frames per task, want at most 3", frames)
	}
	for _, n := range nodes {
		if d := n.Stats().RecorderDropped; d != 0 {
			t.Fatalf("%s's recorder dropped %d events: the checks below would read a truncated log", n.cfg.name, d)
		}
	}

	onWire := map[string]int64{}
	for _, e := range eventsOf(root, EvRequestServed) {
		onWire[e.Peer] += e.Value
	}
	for _, w := range ws {
		name, s := w.cfg.name, w.Stats()
		if onWire[name] != s.Requests || s.Requests != s.Received+buffers {
			t.Errorf("%s: request frames carried %d requests; the worker counts %d sent and %d tasks received behind %d buffers",
				name, onWire[name], s.Requests, s.Received, buffers)
		}
		resultSeq := map[uint64]uint64{}
		for _, e := range eventsOf(w, EvResultSend) {
			resultSeq[e.Task] = e.Seq
		}
		received := eventsOf(w, EvTaskReceived)
		if int64(len(received)) != s.Received {
			t.Fatalf("%s recorded %d task receipts for %d tasks", name, len(received), s.Received)
		}
		for _, e := range received {
			if res := resultSeq[e.Task]; res <= e.Seq {
				t.Fatalf("%s: task %d received at event %d, result sent at %d; want both, receipt first", name, e.Task, e.Seq, res)
			}
		}
	}
}

// TestMixedBatchCutExhaustive cuts the coalesced writes at every frame
// kind they carry: a drop or a sever scripted on the worker's request or
// result (one uplink batch) at each of the first few occurrences, on the
// root's batched result-ack frame, and on the 2nd and 3rd chunk frame of
// the root's first turn — a multi-task write, since the worker's first
// request frame asks for all three of its buffers. Whatever the cut, the
// Run completes exactly once, a task never has two owners, and no request
// is minted twice. Across a sever none is lost either: the reconnect hello
// carries the worker's own count of requests unanswered, so once idle the
// root holds one per worker buffer, whatever it had read off the link that
// died. What is left is the protocol's own gap on a link that stays up:
// requests and chunks are not acked, so a request frame dropped there is
// gone until the next reconnect, and the root holds that many fewer; a
// dropped chunk's task sits handed off into a subtree that never got it,
// so its row severs the link three chunks later and the revive requeues
// the hole. A dropped ack or result costs no request at all.
func TestMixedBatchCutExhaustive(t *testing.T) {
	const (
		tasks   = 60
		buffers = 3
	)
	cuts := []struct {
		name   string
		onRoot bool
		kind   FrameKind
		afters []int
	}{
		{"request", false, FrameRequest, []int{1, 2, 3, 4}},
		{"result", false, FrameResult, []int{1, 2, 3, 4}},
		{"result-ack", true, FrameResultAck, []int{1, 2, 3, 4}},
		{"chunk", true, FrameChunk, []int{2, 3}},
	}
	ops := []struct {
		name string
		op   FaultOp
	}{{"drop", FaultDrop}, {"sever", FaultSever}}
	for _, cut := range cuts {
		for _, op := range ops {
			for _, after := range cut.afters {
				t.Run(fmt.Sprintf("%s-%s-%d", op.name, cut.name, after), func(t *testing.T) {
					// The root computes too, slowly: a worker left without
					// requests by a dropped request frame cannot hang the Run.
					rootOpts := []Option{
						WithListen("127.0.0.1:0"), WithBuffers(buffers),
						WithCompute(echoCompute(2 * time.Millisecond)), WithReconnectGrace(10 * time.Second),
					}
					wOpts := []Option{
						WithBuffers(buffers), WithCompute(echoCompute(0)), func(c *config) { c.resultRetry = 30 * time.Millisecond },
						WithReconnect(5*time.Millisecond, 20*time.Millisecond, 20),
					}
					rules := []FaultRule{{Link: "parent", Dir: FaultSend, Kind: cut.kind, After: after, Op: op.op}}
					if cut.onRoot {
						rules[0].Link = "w"
					}
					severed := op.op == FaultSever
					if cut.kind == FrameChunk && op.op == FaultDrop {
						// This rule counts only the chunks the drop let pass.
						rules = append(rules, FaultRule{Link: "w", Dir: FaultSend, Kind: FrameChunk, After: after + 2, Op: FaultSever})
						severed = true
					}
					plan := NewFaultPlan(rules...)
					if cut.onRoot {
						rootOpts = append(rootOpts, WithFaultPlan(plan))
					} else {
						wOpts = append(wOpts, WithFaultPlan(plan))
					}
					root := startNode(t, "root", rootOpts...)
					w := startNode(t, "w", append(wOpts, WithParent(root.Addr()))...)

					stop := watchOneOwner(t, root)
					results, err := runWithin(root, makeTasks(tasks, 256), 30*time.Second)
					checkOneOwner(t, root, w)
					stop()
					if err != nil {
						t.Fatalf("Run across the cut: %v", err)
					}
					assertExactlyOnce(t, results, tasks)
					if plan.Pending() != 0 {
						t.Fatalf("the scripted %s never fired", op.name)
					}

					// Requests the worker counts as sent that the root never
					// read off a frame.
					lost := func() int {
						onWire := int64(0)
						for _, e := range eventsOf(root, EvRequestServed) {
							if e.CauseSeq != 0 { // a revive registers the hello's count with no request frame
								onWire += e.Value
							}
						}
						return int(w.Stats().Requests - onWire)
					}
					// Idle, the root holds a request per buffer: after a sever
					// the hello restored whatever the dead link swallowed, and
					// only a drop on a link that stayed up stays lost.
					want := func() int {
						if severed {
							return buffers
						}
						return buffers - lost()
					}
					waitFor(t, "the worker's requests to be registered again", func() bool {
						return sessionPending(root, "w") == want()
					})
					// Nothing is in flight now: had a request been minted
					// twice, the count would pass through this value on its
					// way up rather than settle on it.
					time.Sleep(20 * time.Millisecond)
					if got := sessionPending(root, "w"); got != want() {
						t.Fatalf("idle, the root holds %d requests for a worker of %d buffers, %d never read off a frame", got, buffers, lost())
					}
					if n := lost(); n < 0 {
						t.Fatalf("the root read %d requests more than the worker counts as sent", -n)
					} else if n != 0 && !severed && cut.kind != FrameRequest {
						t.Fatalf("%d requests lost for good on a link that stayed up and dropped no request", n)
					}

					reconnects := int64(0)
					if severed {
						reconnects = 1
					}
					if got := w.Stats().Reconnects; got != reconnects {
						t.Errorf("a scripted %s took %d reconnects, want %d", op.name, got, reconnects)
					}
					if cut.kind == FrameChunk && root.Stats().Requeued == 0 {
						// The first turn handed off three tasks; the cut
						// kept at least one from the worker.
						t.Errorf("a %s inside the multi-task write requeued nothing at the revive", op.name)
					}
					if op.op == FaultDrop && (cut.kind == FrameResult || cut.kind == FrameResultAck) {
						// The retry timer resends the result whose frame or
						// whose ack was lost; a resend of one that did arrive
						// is deduplicated.
						waitFor(t, "the unacked result's retransmission to be counted", func() bool {
							return w.Stats().ResultsReplayed > 0
						})
						if cut.kind == FrameResultAck {
							waitFor(t, "the retransmitted result to be deduplicated", func() bool {
								return root.Stats().ResultsDeduped > 0
							})
						}
					}
				})
			}
		}
	}
}

// TestRequestInDoubtAcrossReconnect stalls the uplink writer inside a
// batch, on its request frame, for long enough that the link dies and is
// replaced under it. The reconnect hello, built while that write is in
// doubt, reports the batch's requests as sent — the parent may have
// answered them for all the node knows — and the parent registers them on
// its word. When the write then fails on the dead link they must not be
// owed again: once idle the root holds one request per buffer, not one more.
func TestRequestInDoubtAcrossReconnect(t *testing.T) {
	const (
		tasks   = 40
		buffers = 3
		stall   = 300 * time.Millisecond
	)
	// The root severs the link at its first heartbeat, 30 ms in.
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(buffers),
		WithCompute(echoCompute(2*time.Millisecond)), WithReconnectGrace(10*time.Second),
		WithHeartbeat(30*time.Millisecond, 1000), // the stalled worker is silent, not dead
		WithFaultPlan(NewFaultPlan(FaultRule{Link: "w", Dir: FaultSend, Kind: FrameHeartbeat, Op: FaultSever})),
	)
	plan := NewFaultPlan(FaultRule{Link: "parent", Dir: FaultSend, Kind: FrameRequest, After: 2, Op: FaultDelay, Delay: stall})
	start := time.Now()
	w := startNode(t, "w",
		WithParent(root.Addr()), WithBuffers(buffers), WithCompute(echoCompute(0)), WithFaultPlan(plan),
		WithReconnect(5*time.Millisecond, 20*time.Millisecond, 20),
	)
	results, err := runWithin(root, makeTasks(tasks, 256), 30*time.Second)
	if err != nil {
		t.Fatalf("Run across the stalled write: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	if plan.Pending() != 0 {
		t.Fatal("the scripted stall never fired")
	}
	time.Sleep(time.Until(start.Add(stall + 100*time.Millisecond))) // the stalled write has failed by now
	if got := w.Stats().Reconnects; got != 1 {
		t.Fatalf("%d reconnects, want the one the root's sever forced", got)
	}
	waitFor(t, "the worker's requests to be registered again", func() bool {
		return sessionPending(root, "w") == buffers
	})
	time.Sleep(20 * time.Millisecond)
	if got := sessionPending(root, "w"); got != buffers {
		t.Fatalf("idle, the root holds %d requests for a worker of %d buffers", got, buffers)
	}
}
