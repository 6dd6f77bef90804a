package live

// Tests for one write per wake-up: the uplink writer that carries acks,
// requests and results in one batch, and the result acks that ride the
// downlink's next write.

import (
	"fmt"
	"testing"
	"time"
)

// TestSteadyStateWritesPerTask pins the syscall cost of a task on one
// link: at most two writes up (ack + request, result — fewer when a
// wake-up finds more owed) and two down (chunk, result ack), where the
// parent of this change spent three and two with nothing to share them.
// Coalescing must not change what crosses the link: every request the
// leaf counts is on the wire, every result is acked, and a task's ack
// frame still precedes its result.
func TestSteadyStateWritesPerTask(t *testing.T) {
	const tasks = 2000
	g := &rootGate{}
	root := startGatedRoot(t, g, Config{Buffers: 3, RecorderCap: 1 << 16})
	w := startNode(t, Config{Name: "w", Parent: root.Addr(), Buffers: 3, Compute: g.worker, RecorderCap: 1 << 16})

	up0, down0 := w.wireCtr.writes.Load(), root.wireCtr.writes.Load()
	g.arm(tasks)
	results, err := root.RunTimeout(makeTasks(tasks, 256), 60*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	assertExactlyOnce(t, results, tasks)
	// The last result's ack races Run's return.
	waitFor(t, "every result to be acked", func() bool {
		s := w.Stats()
		return s.Computed >= tasks-1 && s.ResultAcks == s.Computed
	})
	up, down := w.wireCtr.writes.Load()-up0, root.wireCtr.writes.Load()-down0
	t.Logf("%d tasks: %d writes up, %d down", tasks, up, down)
	if up > 2*tasks || down > 2*tasks {
		t.Errorf("%d tasks took %d writes up and %d down, want at most %d each way", tasks, up, down, 2*tasks)
	}
	if d := root.Stats().RecorderDropped + w.Stats().RecorderDropped; d != 0 {
		t.Fatalf("the recorders dropped %d events: the checks below would read a truncated log", d)
	}

	var onWire int64
	ackWire := map[uint64]uint64{} // the worker's task-received event → its ack frame's wire sequence
	for _, e := range root.Events() {
		switch e.Kind {
		case EvRequestServed:
			onWire += e.Value
		case EvChunkAck:
			ackWire[e.CauseSeq] = e.WireSeq
		}
	}
	if got := w.Stats().Requests; onWire != got || got != w.Stats().Received+3 {
		t.Errorf("request frames carried %d requests; the worker counts %d sent and %d tasks received behind 3 buffers", onWire, got, w.Stats().Received)
	}
	resultWire := map[uint64]uint64{}
	for _, e := range eventsOf(w, EvResultSend) {
		resultWire[e.Task] = e.WireSeq
	}
	received := eventsOf(w, EvTaskReceived)
	if int64(len(received)) != w.Stats().Received {
		t.Fatalf("the worker recorded %d task receipts for %d tasks", len(received), w.Stats().Received)
	}
	for _, e := range received {
		ack, res := ackWire[e.Seq], resultWire[e.Task]
		if ack == 0 || res == 0 || ack >= res {
			t.Fatalf("task %d: ack frame at wire sequence %d, result at %d; want both, ack first", e.Task, ack, res)
		}
	}
}

// TestMixedBatchCutExhaustive cuts the coalesced writes at every frame
// kind they carry: a drop or a sever scripted on the worker's chunk ack,
// request or result (one uplink batch) or on the root's result ack (queued
// behind the downlink's next write), at each of the first few occurrences.
// Whatever the cut, the Run completes exactly once, a task never has two
// owners, and no request is minted twice. Across a sever none is lost
// either: the reconnect hello carries the worker's own count of requests
// unanswered, so once idle the root holds one per worker buffer, whatever
// it had read off the link that died. What is left is the protocol's own
// gap on a link that stays up: requests are not acked, so a request frame
// dropped there is gone until the next reconnect, and the root holds that
// many fewer. A dropped ack or result costs no request at all.
func TestMixedBatchCutExhaustive(t *testing.T) {
	const (
		tasks   = 60
		buffers = 3
	)
	cuts := []struct {
		name   string
		onRoot bool
		kind   FrameKind
	}{
		{"chunk-ack", false, FrameChunkAck},
		{"request", false, FrameRequest},
		{"result", false, FrameResult},
		{"result-ack", true, FrameResultAck},
	}
	ops := []struct {
		name       string
		op         FaultOp
		reconnects int64
	}{{"drop", FaultDrop, 0}, {"sever", FaultSever, 1}}
	for _, cut := range cuts {
		for _, op := range ops {
			for after := 1; after <= 4; after++ {
				t.Run(fmt.Sprintf("%s-%s-%d", op.name, cut.name, after), func(t *testing.T) {
					// The root computes too, slowly: a worker left without
					// requests by a dropped request frame cannot hang the Run.
					rootCfg := Config{
						Name: "root", Listen: "127.0.0.1:0", Buffers: buffers,
						Compute: echoCompute(2 * time.Millisecond), ReconnectGrace: 10 * time.Second,
					}
					wCfg := Config{
						Name: "w", Buffers: buffers, Compute: echoCompute(0), ResultRetry: 30 * time.Millisecond,
						ReconnectBase: 5 * time.Millisecond, ReconnectCap: 20 * time.Millisecond, ReconnectAttempts: 20,
					}
					rule := FaultRule{Link: "parent", Dir: FaultSend, Kind: cut.kind, After: after, Op: op.op}
					if cut.onRoot {
						rule.Link = "w"
					}
					plan := NewFaultPlan(rule)
					if cut.onRoot {
						rootCfg.Faults = plan
					} else {
						wCfg.Faults = plan
					}
					root := startNode(t, rootCfg)
					wCfg.Parent = root.Addr()
					w := startNode(t, wCfg)

					stop := watchOneOwner(t, root)
					results, err := root.RunTimeout(makeTasks(tasks, 256), 30*time.Second)
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
							if e.WireSeq != 0 { // a revive registers the hello's count with no request frame
								onWire += e.Value
							}
						}
						return int(w.Stats().Requests - onWire)
					}
					// Idle, the root holds a request per buffer: after a sever
					// the hello restored whatever the dead link swallowed, and
					// only a drop on a link that stayed up stays lost.
					want := func() int {
						if op.op == FaultSever {
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
					} else if n != 0 && op.op == FaultDrop && cut.kind != FrameRequest {
						t.Fatalf("%d requests lost for good on a link that stayed up and dropped no request", n)
					}

					ws := w.Stats()
					if ws.Reconnects != op.reconnects {
						t.Errorf("a scripted %s took %d reconnects, want %d", op.name, ws.Reconnects, op.reconnects)
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
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: buffers,
		Compute: echoCompute(2 * time.Millisecond), ReconnectGrace: 10 * time.Second,
		HeartbeatInterval: 30 * time.Millisecond, HeartbeatMisses: 1000, // the stalled worker is silent, not dead
		Faults: NewFaultPlan(FaultRule{Link: "w", Dir: FaultSend, Kind: FrameHeartbeat, Op: FaultSever}),
	})
	plan := NewFaultPlan(FaultRule{Link: "parent", Dir: FaultSend, Kind: FrameRequest, After: 2, Op: FaultDelay, Delay: stall})
	start := time.Now()
	w := startNode(t, Config{
		Name: "w", Parent: root.Addr(), Buffers: buffers, Compute: echoCompute(0), Faults: plan,
		ReconnectBase: 5 * time.Millisecond, ReconnectCap: 20 * time.Millisecond, ReconnectAttempts: 20,
	})
	results, err := root.RunTimeout(makeTasks(tasks, 256), 30*time.Second)
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
