package live

// Tests for the fault-tolerance machinery: the reconnect backoff schedule
// (against a fake clock), heartbeat-miss detection, requeue accounting,
// and the context-based Run timeout/cancel paths.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bwcs/internal/protocol"
)

func TestBackoffDelay(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		attempt   int
		base, cap time.Duration
		want      time.Duration
	}{
		{1, 100 * ms, 2000 * ms, 100 * ms},
		{2, 100 * ms, 2000 * ms, 200 * ms},
		{3, 100 * ms, 2000 * ms, 400 * ms},
		{4, 100 * ms, 2000 * ms, 800 * ms},
		{5, 100 * ms, 2000 * ms, 1600 * ms},
		{6, 100 * ms, 2000 * ms, 2000 * ms}, // capped: 3200 > 2000
		{7, 100 * ms, 2000 * ms, 2000 * ms}, // stays at the cap
		{1, 50 * ms, 50 * ms, 50 * ms},      // base == cap
		{3, 80 * ms, 100 * ms, 100 * ms},    // cap below the next double
	}
	for _, c := range cases {
		if got := backoffDelay(c.attempt, c.base, c.cap); got != c.want {
			t.Errorf("backoffDelay(%d, %v, %v) = %v, want %v", c.attempt, c.base, c.cap, got, c.want)
		}
	}
}

// fakeParent accepts exactly one child, completes the hello / hello-ack
// handshake, then slams the connection and the listener shut — so every
// subsequent re-dial fails fast and the full backoff schedule plays out.
func fakeParent(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		p := newScriptedPeer(c)
		if hello, err := p.read(); err == nil && hello.Kind == kindHello {
			_ = p.write(&message{Kind: kindHelloAck})
		}
		time.Sleep(50 * time.Millisecond) // let the child finish its handshake
		_ = c.Close()
		_ = l.Close()
	}()
	return l.Addr().String()
}

func TestReconnectBackoffSchedule(t *testing.T) {
	// Replace the backoff clock with a recorder: the supervisor "sleeps"
	// instantly and we assert the exact schedule it asked for.
	var mu sync.Mutex
	var slept []time.Duration
	fakeSleep := func(d time.Duration, done <-chan struct{}) bool {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return true
	}

	child, err := Start("c",
		WithParent(fakeParent(t)), WithBuffers(2), WithCompute(echoCompute(0)),
		WithHeartbeat(-1, 0),
		WithReconnect(10*time.Millisecond, 40*time.Millisecond, 4),
		func(c *config) { c.sleep = fakeSleep },
	)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer child.Close()

	// The fake parent hangs up after the handshake; the supervisor then
	// burns through all four attempts (the address no longer listens) and
	// declares the parent lost.
	deadline := time.Now().Add(5 * time.Second)
	for child.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("node never gave up on its parent")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(child.Err().Error(), "reconnect failed after 4 attempts") {
		t.Fatalf("err = %v", child.Err())
	}

	mu.Lock()
	defer mu.Unlock()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("backoff schedule %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("attempt %d slept %v, want %v (full schedule %v)", i+1, slept[i], want[i], slept)
		}
	}
}

func TestHeartbeatMissDetection(t *testing.T) {
	// The child's fault plan drops every frame it sends after the hello,
	// so from the root's perspective the link goes permanently silent.
	// The root's supervisor must count the silent intervals and sever.
	mute := NewFaultPlan(FaultRule{
		Link: "parent", Dir: FaultSend, After: 2, Repeat: true, Op: FaultDrop,
	})
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(0)),
		WithHeartbeat(20*time.Millisecond, 2),
	)
	startNode(t, "m",
		WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(0)),
		WithHeartbeat(-1, 0), WithReconnect(0, 0, -1), WithFaultPlan(mute),
	)

	deadline := time.Now().Add(5 * time.Second)
	for root.Stats().HeartbeatMisses < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("root never noticed the silent link: misses = %d", root.Stats().HeartbeatMisses)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeliberateDepartureRequeuesImmediately(t *testing.T) {
	// A child that Closes announces a goodbye, so its undone tasks requeue
	// without waiting out the reconnect grace window — and the accounting
	// shows up in Stats.Requeued.
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(5*time.Millisecond)),
	)
	doomed := startNode(t, "doomed",
		WithParent(root.Addr()), WithBuffers(3),
		WithCompute(echoCompute(100*time.Millisecond)), // slow: tasks pile up outstanding
	)
	go func() {
		time.Sleep(200 * time.Millisecond)
		doomed.Close()
	}()
	results, err := runWithin(root, makeTasks(40, 64), 60*time.Second)
	checkOneOwner(t, root)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 40 {
		t.Fatalf("results = %d", len(results))
	}
	if got := root.Stats().Requeued; got == 0 {
		t.Fatalf("no tasks requeued after the child departed mid-run")
	}
}

func TestRunDeadlineReturnsTypedErrorAndPartials(t *testing.T) {
	root := startNode(t, "root",
		WithBuffers(2), WithCompute(echoCompute(50*time.Millisecond)),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	results, err := root.Run(ctx, makeTasks(50, 16))
	checkOneOwner(t, root)
	if err == nil {
		t.Fatalf("50 x 50ms inside 120ms did not time out")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TimeoutError", err, err)
	}
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v does not match ErrTimeout and context.DeadlineExceeded", err)
	}
	if te.Expected != 50 || te.Received != len(results) {
		t.Fatalf("counts %d/%d, partials %d", te.Received, te.Expected, len(results))
	}
	if len(results) == 0 || len(results) == 50 {
		t.Fatalf("expected a strict subset of results, got %d of 50", len(results))
	}
}

func TestRunCancellation(t *testing.T) {
	root := startNode(t, "root",
		WithBuffers(2), WithCompute(echoCompute(50*time.Millisecond)),
	)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(120 * time.Millisecond)
		cancel()
	}()
	_, err := root.Run(ctx, makeTasks(50, 16))
	checkOneOwner(t, root)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("cancellation misreported as a timeout: %v", err)
	}
}

// TestRunAfterAbandonedRun: a timed-out Run leaves none of its tasks in
// the root's pool, so the next Run is not queued behind them; the tasks
// still in flight run on, their late results are dropped, and a Run that
// reuses one of their IDs meanwhile is refused; a result of a task no Run
// dispatched still fails the Run.
func TestRunAfterAbandonedRun(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithCompute(echoCompute(20*time.Millisecond)),
	)
	startNode(t, "leaf", WithParent(root.Addr()), WithCompute(echoCompute(20*time.Millisecond)))
	first, err := runWithin(root, makeTasks(40, 16), 60*time.Millisecond)
	if !errors.Is(err, ErrTimeout) || len(first) == 40 {
		t.Fatalf("40 x 20ms inside 60ms: %d results, err %v; want a timeout", len(first), err)
	}
	if b := root.snapshot().Buffered; b != 0 {
		t.Errorf("the abandoned Run left %d tasks buffered at the root", b)
	}
	var held []uint64
	root.query(func() { held = root.holding() })
	if len(held) == 0 {
		t.Fatalf("no task of the abandoned Run in flight")
	}
	reused := held[len(held)-1] // dispatched last, so the furthest from done
	if _, err := runWithin(root, []Task{{ID: reused}}, 30*time.Second); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("task id %d ", reused)) {
		t.Errorf("a Run reusing in-flight abandoned task %d: err %v, want a refusal naming it", reused, err)
	}
	next := []Task{{ID: 1001}, {ID: 1002}}
	if results, err := runWithin(root, next, 30*time.Second); err != nil || len(results) != 2 {
		t.Fatalf("Run after an abandoned Run: %d results, err %v; want 2 and none", len(results), err)
	}
	// A result no Run dispatched, planted at the root's owner while a Run
	// collects, fails that Run.
	stray := makeTasks(40, 16)
	for i := range stray {
		stray[i].ID += 2000
	}
	errc := make(chan error, 1)
	go func() {
		_, err := runWithin(root, stray, 30*time.Second)
		errc <- err
	}()
	for planted := false; !planted; {
		select {
		case err := <-errc:
			t.Fatalf("the Run ended before a stray result could be planted: %v", err)
		default:
		}
		root.query(func() {
			if planted = root.running != nil; planted {
				root.owe(Result{ID: 5555})
			}
		})
	}
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "unexpected result id 5555") {
		t.Fatalf("a result no Run dispatched: err %v, want unexpected result id 5555", err)
	}
	checkOneOwner(t, root)
}

// TestConcurrentRunRefused: two Runs started together on one root. The
// owner takes one and refuses the other at once, and the one it takes
// still collects every result exactly once.
func TestConcurrentRunRefused(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithCompute(echoCompute(5*time.Millisecond)),
	)
	startNode(t, "leaf", WithParent(root.Addr()), WithCompute(echoCompute(5*time.Millisecond)))
	type runOut struct {
		base    uint64
		results []Result
		err     error
	}
	out, start := make(chan runOut, 2), make(chan struct{})
	for _, base := range []uint64{0, 1000} {
		go func() {
			tasks := makeTasks(30, 16)
			for i := range tasks {
				tasks[i].ID += base
			}
			<-start
			results, err := runWithin(root, tasks, 10*time.Second)
			out <- runOut{base, results, err}
		}()
	}
	close(start)
	refused, taken := <-out, <-out
	if refused.err == nil || !strings.Contains(refused.err.Error(), "a Run is already in flight") || len(refused.results) != 0 {
		t.Fatalf("the Run that returned first: %d results, err %v; want none and a refusal", len(refused.results), refused.err)
	}
	if taken.err != nil {
		t.Fatalf("the Run taken: %d results, err %v", len(taken.results), taken.err)
	}
	for i := range taken.results {
		taken.results[i].ID -= taken.base
	}
	assertExactlyOnce(t, taken.results, 30)
	checkOneOwner(t, root)
}

// TestOptionsDefaults resolves every option at a negative, a zero and a
// positive argument: zero keeps the default, a negative value switches
// off what its option documents as switchable and is refused elsewhere,
// and the defaults are the paper's headline protocol (IC, FB=3) with the
// runtime's timings.
func TestOptionsDefaults(t *testing.T) {
	n, err := Start("n", WithCompute(echoCompute(0)))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer n.Close()
	want := config{
		name: "n", compute: n.cfg.compute, sleep: n.cfg.sleep,
		protocol:  protocol.Protocol{Interruptible: true, InitialBuffers: 3},
		chunkSize: 4096, heartbeat: time.Second, heartbeatMisses: 3,
		writeTimeout: 10 * time.Second, handshakeTimeout: 5 * time.Second,
		reconnectBase: 100 * time.Millisecond, reconnectCap: 2 * time.Second, reconnectAttempts: 5,
		reconnectGrace: 5 * time.Second, resultRetry: 2 * time.Second,
		recorderCap: 8192, timelineInterval: time.Second,
	}
	if got := settings(n.cfg); got != settings(want) {
		t.Fatalf("defaults:\n got %s\nwant %s", got, settings(want))
	}
	if n.TraceDump().Events == nil || n.TimelineDump().Series == nil {
		t.Errorf("the node runs without a flight recorder or a timeline sampler")
	}

	plan := NewFaultPlan()
	same := func(*config) {}
	cases := []struct {
		name string
		opt  Option
		want func(*config) // the change from the defaults; nil when Start refuses
	}{
		{"WithListen(\"\")", WithListen(""), same},
		{"WithListen(addr)", WithListen("127.0.0.1:0"), func(c *config) { c.listen = "127.0.0.1:0" }},
		{"WithParent(\"\")", WithParent(""), same},
		{"WithParent(addr)", WithParent("127.0.0.1:1"), func(c *config) { c.parent = "127.0.0.1:1" }},
		{"WithCompute(nil)", WithCompute(nil), nil},
		{"WithBuffers(-1)", WithBuffers(-1), nil},
		{"WithBuffers(0)", WithBuffers(0), same},
		{"WithBuffers(5)", WithBuffers(5), func(c *config) { c.protocol.InitialBuffers = 5 }},
		{"NonInterruptible()", NonInterruptible(), func(c *config) { c.protocol.Interruptible = false }},
		{"WithChunkSize(-1)", WithChunkSize(-1), nil},
		{"WithChunkSize(0)", WithChunkSize(0), same},
		{"WithChunkSize(512)", WithChunkSize(512), func(c *config) { c.chunkSize = 512 }},
		{"WithLinkDelay(nil)", WithLinkDelay(nil), same},
		{"WithLinkDelay(fn)", WithLinkDelay(func(string) time.Duration { return 0 }),
			func(c *config) { c.linkDelay = func(string) time.Duration { return 0 } }},
		{"WithHeartbeat(-1, 0)", WithHeartbeat(-1, 0), func(c *config) { c.heartbeat = 0 }},
		{"WithHeartbeat(0, -1)", WithHeartbeat(0, -1), nil},
		{"WithHeartbeat(0, 0)", WithHeartbeat(0, 0), same},
		{"WithHeartbeat(200ms, 5)", WithHeartbeat(200*time.Millisecond, 5),
			func(c *config) { c.heartbeat, c.heartbeatMisses = 200*time.Millisecond, 5 }},
		{"WithReconnect(-1, 0, 0)", WithReconnect(-1, 0, 0), nil},
		{"WithReconnect(0, -1, 0)", WithReconnect(0, -1, 0), nil},
		{"WithReconnect(0, 0, -1)", WithReconnect(0, 0, -1), func(c *config) { c.reconnectAttempts = 0 }},
		{"WithReconnect(0, 0, 0)", WithReconnect(0, 0, 0), same},
		{"WithReconnect(50ms, 1s, 7)", WithReconnect(50*time.Millisecond, time.Second, 7),
			func(c *config) {
				c.reconnectBase, c.reconnectCap, c.reconnectAttempts = 50*time.Millisecond, time.Second, 7
			}},
		{"WithReconnectGrace(-1)", WithReconnectGrace(-1), func(c *config) { c.reconnectGrace = 0 }},
		{"WithReconnectGrace(0)", WithReconnectGrace(0), same},
		{"WithReconnectGrace(2s)", WithReconnectGrace(2 * time.Second), func(c *config) { c.reconnectGrace = 2 * time.Second }},
		{"WithFaultPlan(nil)", WithFaultPlan(nil), same},
		{"WithFaultPlan(plan)", WithFaultPlan(plan), func(c *config) { c.faults = plan }},
		{"WithRecorderCapacity(-1)", WithRecorderCapacity(-1), func(c *config) { c.recorderCap = 0 }},
		{"WithRecorderCapacity(0)", WithRecorderCapacity(0), same},
		{"WithRecorderCapacity(64)", WithRecorderCapacity(64), func(c *config) { c.recorderCap = 64 }},
		{"WithTimelineInterval(-1)", WithTimelineInterval(-1), func(c *config) { c.timelineInterval = 0 }},
		{"WithTimelineInterval(0)", WithTimelineInterval(0), same},
		{"WithTimelineInterval(250ms)", WithTimelineInterval(250 * time.Millisecond),
			func(c *config) { c.timelineInterval = 250 * time.Millisecond }},
	}
	for _, tc := range cases {
		got := defaults("n")
		WithCompute(echoCompute(0))(&got)
		tc.opt(&got)
		err := got.check()
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted, want refused", tc.name)
			}
			continue
		}
		exp := defaults("n")
		WithCompute(echoCompute(0))(&exp)
		tc.want(&exp)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if settings(got) != settings(exp) {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, settings(got), settings(exp))
		}
	}
}

// settings renders c for comparison, each function field as whether it
// is set.
func settings(c config) string {
	funcs := fmt.Sprint(c.compute != nil, c.linkDelay != nil, c.sleep != nil)
	c.compute, c.linkDelay, c.sleep = nil, nil, nil
	return fmt.Sprintf("%+v funcs %s", c, funcs)
}

// TestStartRejectsNegativeArguments: an option argument that neither
// keeps a default (zero) nor switches a machinery off fails Start rather
// than running with the default.
func TestStartRejectsNegativeArguments(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithChunkSize(-1)", WithChunkSize(-1)},
		{"WithHeartbeat(1s, -1)", WithHeartbeat(time.Second, -1)},
		{"WithReconnect(-1, 2s, 5)", WithReconnect(-1, 2*time.Second, 5)},
		{"WithReconnect(100ms, -1, 5)", WithReconnect(100*time.Millisecond, -1, 5)},
	} {
		n, err := Start("n", WithCompute(echoCompute(0)), tc.opt)
		if err == nil {
			n.Close()
			t.Errorf("Start with %s succeeded, want an error", tc.name)
		}
	}
}

// TestOwnerNeverBlocksOnIO wedges the root's send port in a write to a
// child that completed its hello, asked for a task and stopped reading —
// the stall shape a lock held across a write would spread to the whole
// node. The owner does no I/O, so while the port is stuck the node still
// answers Stats at once, registers a second child's request, and closes
// without waiting out the write timeout.
func TestOwnerNeverBlocksOnIO(t *testing.T) {
	const size = 8 << 20 // one turn of 1 MiB chunks, far past a socket's buffers
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(0)),
		WithChunkSize(1<<20), func(c *config) { c.writeTimeout = time.Minute }, WithHeartbeat(-1, 0),
	)
	stuck, err := dialScripted(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.close()
	if err := stuck.raw.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := stuck.hello(message{Name: "stuck"}); err != nil {
		t.Fatal(err)
	}
	if err := stuck.write(&message{Kind: kindRequest, N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stuck child's request", func() bool { return sessionPending(root, "stuck") == 1 })

	runErr := make(chan error, 1)
	go func() {
		_, err := runWithin(root, makeTasks(3, size), time.Minute)
		runErr <- err
	}()
	waitFor(t, "the port to take the stuck child's transfer", func() bool {
		var onPort bool
		root.query(func() {
			for _, w := range root.turn {
				onPort = onPort || root.portBusy && w.tr != nil && w.s.name == "stuck"
			}
		})
		return onPort
	})

	other, err := dialScripted(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer other.close()
	if _, err := other.hello(message{Name: "other"}); err != nil {
		t.Fatalf("a second child's handshake behind a stuck port: %v", err)
	}
	if err := other.write(&message{Kind: kindRequest, N: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second child's request to be registered", func() bool {
		for _, e := range eventsOf(root, EvRequestServed) {
			if e.Peer == "other" { // its hello reported none unanswered
				return true
			}
		}
		return false
	})

	start := time.Now()
	root.Stats()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Stats took %v with the send port stuck in a write", took)
	}
	start = time.Now()
	root.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("Close took %v with the send port stuck in a write", took)
	}
	if err := <-runErr; err == nil {
		t.Error("Run completed with its transfer stuck on a child that reads nothing")
	}
}

// TestMaxQueuedCountsRequeues pins the high-water mark across a
// departure: an interior node whose buffers are full when its child
// leaves ends up holding the child's reclaimed tasks on top of its own,
// and Stats.MaxQueued must report that peak, not the FB it held before.
func TestMaxQueuedCountsRequeues(t *testing.T) {
	// Every compute below the root blocks on the gate, so the overlay
	// settles with mid and leaf each holding all they can.
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	defer open()
	gated := func(t Task) ([]byte, error) {
		<-gate
		return t.Payload, nil
	}

	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(2*time.Millisecond)),
	)
	mid := startNode(t, "mid",
		WithParent(root.Addr()), WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(gated),
	)
	leaf := startNode(t, "leaf",
		WithParent(mid.Addr()), WithBuffers(3), WithCompute(gated),
	)

	type runOut struct {
		results []Result
		err     error
	}
	done := make(chan runOut, 1)
	go func() {
		results, err := runWithin(root, makeTasks(24, 64), 60*time.Second)
		done <- runOut{results, err}
	}()

	// Settled: mid's buffers are full and it awaits results for everything
	// the leaf holds (one task computing, FB buffered).
	var before, held int
	waitFor(t, "mid and leaf to fill up", func() bool {
		mid.query(func() {
			before = mid.buffer.len()
			held = 0
			for _, s := range mid.children {
				held += len(s.outstanding)
			}
		})
		return before == 3 && held == 4
	})

	go leaf.Close() // announces the departure, then waits on its gated compute
	waitFor(t, "mid to reclaim the leaf's tasks", func() bool {
		return mid.Stats().Requeued == int64(held)
	})
	if got, want := mid.Stats().MaxQueued, before+held; got != want {
		t.Errorf("mid MaxQueued = %d after requeueing %d tasks onto %d buffered, want %d", got, held, before, want)
	}

	open()
	out := <-done
	checkOneOwner(t, root, mid)
	if out.err != nil || len(out.results) != 24 {
		t.Fatalf("Run: %d results, err %v", len(out.results), out.err)
	}
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
