// Package live is a working distributed implementation of the paper's
// autonomous bandwidth-centric scheduling protocol over real TCP
// connections — the prototype its future-work section calls for.
//
// Nodes form a tree overlay: each node listens for children and, except at
// the root, connects to its parent. Scheduling is exactly the paper's,
// decided by the per-node protocol core the simulator drives too
// (internal/protocol):
//
//   - request-driven — a node sends one request up whenever one of its
//     task buffers frees (at the start of a local computation or of a
//     downstream forward);
//   - bandwidth-centric — a parent serves the requesting child with the
//     smallest *measured* communication time (an EWMA of observed chunk
//     send times, the core's priority key; no global information);
//   - interruptible — task payloads stream in chunks through a single send
//     port, and between chunks the port switches to a higher-priority
//     child's transfer, exactly the shelve-and-resume semantics of
//     Section 3.2 (disable with NonInterruptible for the non-IC variant).
//
// Results return hop by hop to the root, which is the source and sink of
// all application data. An overlay runs one application, as in the paper:
// its tasks are independent and alike, so every node buffers them first
// in, first out, and no frame names an application. Every scheduling
// decision uses only locally observable state, so subtrees can be added
// under any node while an application runs.
//
// # Fault tolerance
//
// The runtime survives churn, the regime volunteer platforms live in:
//
//   - Every link is supervised by heartbeats (WithHeartbeat) and a 10 s
//     deadline on every frame written; a silent or stalled link is
//     severed rather than hanging the run.
//   - When a child's link dies, its parent keeps the session revivable
//     for a grace window (WithReconnectGrace) and then reclaims every
//     task delivered into the dead subtree without a returned result,
//     requeueing them for re-dispatch — the engine's DepartMutation
//     semantics. Tasks execute at least once; parents deduplicate, so
//     results are delivered exactly once.
//   - A disconnected non-root node re-dials its parent with capped
//     exponential backoff (WithReconnect), resuming an interrupted
//     transfer from the offset its hello offers and replaying results it
//     computed while partitioned.
//   - Results are acknowledged frames, not fire-and-forget: each node
//     keeps every result it owes its parent in an unacked ledger,
//     retired only by the parent's ack, replayed after a reconnect, and
//     retransmitted after 2 s unacked on a lossy link. At revive time
//     the parent requeues any outstanding task the child's hello no
//     longer accounts for, so a result lost in a sever window costs a
//     retransmission, never the run.
//   - A deterministic fault-injection harness (FaultPlan, WithFaultPlan)
//     drops, delays, or severs a named link at a scripted frame, so all
//     of the above is testable in-process.
//
// The package is runnable both in-process (tests, examples) and as
// separate OS processes via cmd/bwnode.
package live

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bwcs/internal/protocol"
)

// Task is one unit of work of the application an overlay runs: as in the
// paper, every task of a Run is one more of the same application's
// independent tasks, and a node buffers and serves them first in, first
// out.
type Task struct {
	ID      uint64
	Payload []byte
}

// Result is a completed task.
type Result struct {
	ID     uint64
	Output []byte
	Origin string // name of the node that computed it
}

// ComputeFunc executes one task. It runs on the node's single compute
// "port" (one task at a time, as in the paper's base model).
type ComputeFunc func(Task) ([]byte, error)

// Stats is a snapshot of a node's counters.
type Stats struct {
	Computed   int64            // tasks computed locally
	Forwarded  int64            // tasks sent to children
	Received   int64            // tasks received from the parent
	Requests   int64            // requests sent to the parent
	Interrupts int64            // send-port switches away from an unfinished transfer
	MaxQueued  int              // most tasks simultaneously buffered
	ByChild    map[string]int64 // tasks forwarded per child

	// Recovery counters.
	Reconnects      int64 // successful re-dials of a lost parent link
	Requeued        int64 // tasks reclaimed from dead subtrees and requeued
	Resumed         int64 // transfers resumed mid-payload after a child reconnected
	HeartbeatMisses int64 // supervision intervals that passed with a silent link
	SendErrors      int64 // ack sends that failed on a dying link (replay covers them)

	// Result-path delivery counters.
	ResultAcks       int64 // ledger entries retired by a parent's result ack
	ResultsReplayed  int64 // unacked results retransmitted (reconnect replay or retry)
	ResultsDeduped   int64 // duplicate results suppressed before relay/collection
	RequeuedOnRevive int64 // tasks requeued by revive-time reconciliation (subset of Requeued)

	// RecorderDropped counts flight-recorder events evicted by ring
	// overflow; nonzero means dumps hold a truncated window.
	RecorderDropped int64

	// UptimeSeconds is how long the node has been running, in whole
	// seconds since Start returned it.
	UptimeSeconds int64

	// Wire data-plane volume, aggregated over all of the node's links in
	// both directions (and across reconnects). Bytes are measured at the
	// socket, so they include codec overhead — the ratio of frames to
	// bytes is the codec's framing efficiency.
	FramesSent     int64
	FramesReceived int64
	BytesSent      int64
	BytesReceived  int64
}

// Node is a running overlay node.
//
// One goroutine, the owner, holds the protocol state — the fields from
// parent on. Its steps (owner.go) take data inputs and append effects as
// data; its shell (ownerLoop) receives the inputs on inbox, reads the
// clock and carries the effects out. The conn readers, the send port, the
// uplink writer, the compute port, the dialler and the heartbeats move
// frames and run tasks: they take work the owner decided and report back.
type Node struct {
	cfg      config
	root     bool
	listener net.Listener

	// wireCtr meters data-plane volume across all conns; started anchors
	// uptime and timeline timestamps.
	wireCtr wireCounters
	started time.Time

	portDue time.Time // the emulated link's schedule (see paceChunk), the send port's own

	// inbox carries every input to the owner; its buffer lets readers hand
	// over a burst without a wake-up each (any size is correct: the owner
	// never blocks). The other channels carry decided work, one at a time.
	inbox    chan input
	portJobs chan []portWrite
	upKick   chan struct{} // wakes the parked uplink writer
	upJobs   chan *upJob   // its pulled batches; nil parks it
	tasks    chan Task

	done      chan struct{}         // closed by Close
	ownerGone chan struct{}         // closed once the owner has stopped; its state is then read-only
	failed    chan struct{}         // closed on the first fatal error
	err       atomic.Pointer[error] // the first fatal error
	closing   atomic.Bool           // Close has begun
	wg        sync.WaitGroup

	parent *conn // current uplink; nil while disconnected (or root)
	// core is the node's protocol (internal/protocol): its buffers, its
	// compute port, and one slot per child at the send port, slot i being
	// children[i]'s. The owner feeds it inputs and carries out its
	// decisions; the tasks themselves are in buffer, the transfers in the
	// sessions. slotBuf is the other half of resort's double buffer.
	core    protocol.Node
	slotBuf []protocol.Slot
	nextID  int32 // the next session's slot name
	// reqDeficit counts the requests owed to the parent; the uplink writer
	// sends them with its next batch. Every buffer is at all times exactly
	// one of: holding a task, receiving one (a partial transfer), owed a
	// request, or waiting on a request already sent — so the last count
	// needs no ledger of its own (unanswered).
	reqDeficit int
	// unacked is the result ledger: every result this node owes its
	// parent, in arrival order, retired only by a matching result ack.
	// The uplink writer is its sole sender, so wire order follows
	// ledger order even across reconnects and retransmits.
	unacked   []*resultEntry
	due       []*resultEntry  // dueResultBatch's scratch
	computing []uint64        // the task on the compute port right now, if any
	children  []*childSession // in slot order: by link estimate, then name
	buffer    taskPool        // tasks awaiting dispatch; at the root, the application
	running   *runLedger      // the Run in flight (root only)
	// abandoned holds the IDs of the tasks in flight that a Run returned
	// without collecting (root only): the owner drops their results and
	// their requeues, and refuses a Run that reuses one.
	abandoned map[uint64]bool
	stats     Stats
	rec       *flightRecorder // nil when disabled
	samples   *sampleRing     // the timeline; nil when sampling is disabled
	status    *statusServer
	stopped   bool     // Close stopped the owner
	armed     bool     // the timer is armed
	fx        []effect // the step's effects, for the shell

	// Whether the send port and the uplink writer hold work (the compute
	// port's is the core's), and what they hold meanwhile. portPaced marks
	// a send port whose last turn wrote a chunk: its emulated link's
	// schedule runs on.
	portBusy, upBusy, portPaced bool
	turn                        []portWrite
	up                          upJob
}

// childSession is the parent-side state for one connected child.
type childSession struct {
	name string
	c    *conn
	// id names the session in its core slot, and slot is that slot's
	// index (-1 once reclaimed); the requests pending are the slot's.
	id   int32
	slot int
	link ewma // measured per-chunk communication time, the slot's key
	// active is the transfer the send port is still writing; the port turn
	// that builds its final chunk hands it off to outstanding.
	active *outTransfer
	gone   bool
	left   bool      // announced a deliberate departure: reclaim without grace
	goneAt time.Time // when the link died, for the reconnect grace window
	// admitting marks a session whose hello-ack is not written yet: the
	// accept loop writes it after the owner admits the conn, so without the
	// mark the port could be handed a chunk for the conn ahead of it.
	admitting bool
	// outstanding holds every task handed off into this child's subtree
	// whose result has not yet come back through this node. A task has
	// exactly one owner at every instant — active xor outstanding — and
	// enters outstanding before its final chunk is written, so not even
	// the fastest child's result can arrive unexpected. If the child dies,
	// these are requeued and re-executed (at-least-once semantics; the
	// root deduplicates results by task ID).
	outstanding map[uint64]*outTransfer
	// acks are the result acks owed on c, one frame on the send port's
	// next turn; ackSeq is the receipt of the latest, the frame's cause.
	acks   []resultKey
	ackSeq uint64
}

// outTransfer is one task's send to one child: in progress (possibly
// preempted and resumed) while it is the session's active transfer,
// handed off once it sits in outstanding.
type outTransfer struct {
	task   Task
	offset int // next byte to send
	// resumed marks the next chunk as the start of a new transfer segment
	// (after a preemption or a reconnect resume), so the flight recorder
	// logs it as a resume. traceSeq is the recorder sequence of the event
	// that opened the current segment (dispatch, resume, or hand-off),
	// stamped on every chunk frame of the segment as its causal trace
	// context.
	resumed  bool
	traceSeq uint64
}

// chunkBatch is the most chunks the send port writes to one child per port
// turn (one buffer, one syscall): the rest of its transfer and as many of
// its pending requests' transfers as fit. Preemption happens between
// turns, so the batch trades preemption granularity for throughput; a
// link delay (WithLinkDelay), emulated per chunk, takes single-chunk turns.
const chunkBatch = 8

// ErrTimeout reports a Run whose context deadline expired with results
// still missing; match with errors.Is. The concrete *TimeoutError
// carries the partial counts.
var ErrTimeout = errors.New("live: run timed out")

// TimeoutError is the error Run returns alongside its partial results
// when the context deadline expires.
type TimeoutError struct {
	Received int // results collected before the deadline
	Expected int // tasks dispatched
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("live: timeout with %d of %d results", e.Received, e.Expected)
}

// Unwrap makes errors.Is report both ErrTimeout and
// context.DeadlineExceeded.
func (e *TimeoutError) Unwrap() []error {
	return []error{ErrTimeout, context.DeadlineExceeded}
}

// Start launches a node named name. A root only needs a compute function:
//
//	root, err := live.Start("root",
//		live.WithListen("127.0.0.1:0"),
//		live.WithCompute(fn))
//
// Workers join by address — live.Start("w1", live.WithParent(root.Addr()),
// live.WithCompute(fn)) — connect to their parent at once, and request
// work autonomously. Defaults are documented on each Option.
func Start(name string, opts ...Option) (*Node, error) {
	cfg := defaults(name)
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	n := newNode(cfg)
	n.inbox, n.tasks = make(chan input, 64), make(chan Task, 1)
	n.portJobs, n.upKick, n.upJobs = make(chan []portWrite, 1), make(chan struct{}, 1), make(chan *upJob, 1)
	n.done, n.ownerGone, n.failed = make(chan struct{}), make(chan struct{}), make(chan struct{})

	if cfg.listen != "" {
		l, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			return nil, fmt.Errorf("live: listen: %w", err)
		}
		n.listener = l
	}
	n.goTracked(n.ownerLoop)
	if n.listener != nil {
		n.goTracked(n.acceptLoop)
	}
	if !n.root {
		// The partial transfers are the uplink's own: its reader fills
		// them and its dialler offers them, one goroutine in turn.
		inflight := make(map[uint64]*inTransfer)
		c, err := n.connectParent(inflight, 0)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.goTracked(func() { n.parentSupervisor(c, inflight) })
		n.goTracked(n.uplinkWriter)
	}

	n.goTracked(n.computeLoop)
	n.goTracked(n.sendPort)
	return n, nil
}

// newNode is the owner's state as Start begins it: no goroutine or socket.
func newNode(cfg config) *Node {
	n := &Node{
		cfg:       cfg,
		root:      cfg.parent == "",
		started:   time.Now(),
		stats:     Stats{ByChild: map[string]int64{}},
		abandoned: map[uint64]bool{},
	}
	n.core.Reset(cfg.protocol, n.root)
	if cfg.recorderCap > 0 {
		n.rec = newFlightRecorder(cfg.recorderCap)
	}
	if cfg.timelineInterval > 0 {
		n.samples = newSampleRing(timelineCapacity)
	}
	// The paper's startup rule: one request per buffer, all owed and none
	// sent, so the first hello reports no request unanswered.
	n.reqDeficit = int(n.core.Initial())
	return n
}

// realSleep pauses for d, abandoning the wait when done closes. The
// reconnect backoff goes through config.sleep so tests can substitute a
// fake clock.
func realSleep(d time.Duration, done <-chan struct{}) bool {
	select {
	case <-time.After(d):
		return true
	case <-done:
		return false
	}
}

// backoffDelay is the capped exponential reconnect schedule: attempt k
// (1-based) sleeps min(base<<(k-1), cap).
func backoffDelay(attempt int, base, cap time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	return min(d, cap)
}

// Addr returns the node's listen address (useful with "127.0.0.1:0").
func (n *Node) Addr() string {
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

// Err returns the first fatal error the node hit, if any.
func (n *Node) Err() error {
	if err := n.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Failed returns a channel closed when the node hits a fatal error — a
// parent link lost with every reconnect attempt exhausted, a compute
// failure (see Err). A worker process should watch it to exit once its
// overlay is gone instead of serving a dead tree.
func (n *Node) Failed() <-chan struct{} {
	return n.failed
}

// Done returns a channel closed when the node has shut down — by Close,
// or by a shutdown ordered from upstream when the application finished.
func (n *Node) Done() <-chan struct{} {
	return n.done
}

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() Stats {
	return n.snapshot().Stats
}

// snapshot is the one source of Stats and /status: read while the owner
// is paused, or from the state it left once it stopped.
func (n *Node) snapshot() statusSnapshot {
	resume, _ := n.pause()
	v := statusSnapshot{Name: n.cfg.name, Root: n.root, Buffered: n.buffer.len(), Stats: n.stats,
		Links: map[string]float64{}, Connected: n.root || n.parent != nil}
	v.Stats.ByChild = maps.Clone(n.stats.ByChild)
	v.Stats.MaxQueued = n.buffer.peak
	for _, s := range n.children {
		if !s.gone {
			v.Children = append(v.Children, s.name)
			v.Links[s.name] = s.link.estimate()
		}
	}
	if n.rec != nil {
		v.Stats.RecorderDropped = n.rec.dropped()
	}
	resume()
	v.Stats.FramesSent, v.Stats.FramesReceived = n.wireCtr.framesSent.Load(), n.wireCtr.framesRecv.Load()
	v.Stats.BytesSent, v.Stats.BytesReceived = n.wireCtr.bytesSent.Load(), n.wireCtr.bytesRecv.Load()
	up := time.Since(n.started)
	v.Stats.UptimeSeconds, v.Uptime = int64(up.Seconds()), up.Round(time.Millisecond).String()
	return v
}

// Close shuts the node down: children are told to wind down, the parent
// is told this subtree is leaving for good (so it reclaims and requeues
// immediately instead of waiting out the reconnect grace), and all
// connections close. Closing the root before Run returns aborts the run.
func (n *Node) Close() error {
	if !n.closing.CompareAndSwap(false, true) { // no node goroutine starts from here on
		return nil
	}
	n.put(input{kind: inClose}) // the owner stops only here
	<-n.ownerGone
	if n.status != nil {
		_ = n.status.srv.Close()
	}
	close(n.done)
	for _, s := range n.children {
		s.c.farewell(&message{Kind: kindShutdown})
	}
	if n.parent != nil {
		n.parent.farewell(&message{Kind: kindGoodbye})
	}
	if n.listener != nil {
		_ = n.listener.Close()
	}
	n.wg.Wait()
	return nil
}

// Run dispatches the given tasks from the root and blocks until every
// result has been collected or ctx ends. Only the root (a node with no
// parent) may call Run, and one Run at a time: a Run while another is in
// flight is refused at once.
//
// On a context deadline, Run returns the partial results, in arrival
// order, alongside a *TimeoutError (errors.Is(err, ErrTimeout)); on
// cancellation it returns the partial results and the context's error.
// Re-executed tasks from recovered failures are deduplicated by ID: each
// result is delivered exactly once. A Run that returns early abandons the
// tasks it has not collected: those not yet dispatched are dropped, those
// in flight still run but their results are dropped, and a later Run that
// reuses one of their IDs is refused until its result is in. Tasks already
// handed to a child run there before anything the child is sent later, so
// they can delay the next Run on that child.
func (n *Node) Run(ctx context.Context, tasks []Task) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !n.root {
		return nil, errors.New("live: Run called on a non-root node")
	}
	// The owner collects the Run and answers on slot once: the results, a
	// refusal, or, asked by inAbandon, the results so far.
	slot := make(chan reply, 1)
	var r reply
	err := errors.New("live: node closed during run")
	if n.put(input{kind: inRun, tasks: tasks, reply: slot}) {
		select {
		case r = <-slot:
			err = nil
		case <-ctx.Done():
			err = fmt.Errorf("live: run canceled: %w", ctx.Err())
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				err = &TimeoutError{Expected: len(tasks)}
			}
		case <-n.done:
		case <-n.failed:
			err = n.Err()
		}
	}
	if err != nil { // cut short, unless the reply is in the slot already
		var ok bool
		if r, ok = n.ask(input{kind: inAbandon, reply: slot}); !ok && n.running != nil && n.running.reply == slot {
			r.results = n.running.results // the owner stopped: its state is read-only
		}
		if te, timedOut := err.(*TimeoutError); timedOut {
			te.Received = len(r.results)
		}
	}
	if r.err != nil || len(r.results) < len(tasks) {
		return r.results, cmp.Or(r.err, err)
	}
	slices.SortFunc(r.results, func(a, b Result) int { return cmp.Compare(a.ID, b.ID) })
	return r.results, nil
}

// put hands the owner an input, reporting false when it has stopped.
func (n *Node) put(in input) bool {
	select {
	case n.inbox <- in: // the common case, without a select's cost
		return true
	default:
	}
	select {
	case n.inbox <- in:
		return true
	case <-n.ownerGone:
		return false
	}
}

// ask hands the owner an input with a reply slot, a new one unless in
// brings its own, and waits for the reply; false means the owner stopped
// without giving one.
func (n *Node) ask(in input) (r reply, ok bool) {
	if in.reply == nil {
		in.reply = make(chan reply, 1)
	}
	if n.put(in) {
		select {
		case r = <-in.reply:
			return r, true
		case <-n.ownerGone: // a reply is sent before the owner stops
		}
	}
	select {
	case r = <-in.reply:
		return r, true
	default:
		return r, false
	}
}

// pause parks the owner between two steps, for the caller to read its
// state, and returns the function that releases it. parked is false once
// the owner has stopped: its state is then read-only, resume a no-op.
func (n *Node) pause() (resume func(), parked bool) {
	hold := make(chan reply) // unbuffered: the owner hands over, then takes back
	if n.put(input{kind: inPause, reply: hold}) {
		select {
		case <-hold:
			return func() { hold <- reply{} }, true
		case <-n.ownerGone:
		}
	}
	return func() {}, false
}

// ownerLoop is the owner's shell, until Close stops it. A wake-up reads
// the clock once and steps every pending input, carrying out each step's
// effects before the next, then decides: a burst of frames costs one
// decision and at most one write per link. It alone receives on inbox,
// sends to the ports and arms the timer and the sampling tick; stopping,
// it closes the ports' channels.
func (n *Node) ownerLoop() {
	timer := time.AfterFunc(time.Hour, func() { n.put(input{kind: inTimer}) })
	timer.Stop() // armed only by an effect
	// The sampling tick reads the wire's counters, which no step may.
	tick := time.AfterFunc(time.Hour, func() {
		n.put(input{kind: inSample, bytes: [2]int64{n.wireCtr.bytesSent.Load(), n.wireCtr.bytesRecv.Load()}})
	})
	tick.Stop()
	if n.samples != nil {
		tick.Reset(n.cfg.timelineInterval)
	}
	defer func() {
		timer.Stop()
		tick.Stop()
		close(n.ownerGone)
		close(n.tasks)
		close(n.portJobs)
		close(n.upKick)
		close(n.upJobs)
	}()
	carry := func() {
		for i := range n.fx {
			switch e := &n.fx[i]; e.kind {
			case effCompute:
				n.tasks <- e.task
			case effPortTurn:
				n.portJobs <- e.writes
			case effKick:
				n.upKick <- struct{}{}
			case effBatch:
				n.upJobs <- e.job
			case effArm:
				if e.d > 0 {
					timer.Reset(e.d)
				} else {
					timer.Stop()
				}
			case effReply:
				e.to <- e.r
			case effServe:
				if ss := e.r.status; !n.goTracked(ss.serve) {
					_ = ss.ln.Close() // the node is closing
				}
			}
		}
		clear(n.fx) // pins no payload
		n.fx = n.fx[:0]
	}
	for !n.stopped {
		in := <-n.inbox
		for now := n.started.Add(time.Since(n.started)); !n.stopped; { // one clock read: the owner only subtracts times
			switch in.kind {
			case inPause:
				in.reply <- reply{} // parked
				<-in.reply          // released
			case inSample:
				tick.Reset(n.cfg.timelineInterval) // the next pass
				fallthrough
			default:
				n.step(now, &in)
				carry() // a reply or a batch goes out before the next input
			}
			select {
			case in = <-n.inbox:
				continue
			default:
			}
			n.decide(now)
			carry()
			break
		}
	}
}

// fail records the first fatal error.
func (n *Node) fail(err error) {
	if n.err.CompareAndSwap(nil, &err) {
		close(n.failed)
	}
}

// goTracked runs fn on a goroutine counted by the node's WaitGroup, unless
// shutdown has already begun. Its callers are node goroutines — the owner
// among them — or Start before it returns, so the count is never zero
// when it adds and the Add cannot race Close's Wait. It is the only place a
// node goroutine starts and the only place the WaitGroup is counted up or
// down, so none can be spawned that Close does not wait for
// (TestGoroutinesStartTracked). It reports whether fn started.
func (n *Node) goTracked(fn func()) bool {
	if n.closing.Load() {
		return false
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
	return true
}

// superviseConn watches one link: it sends a heartbeat every interval
// and, after heartbeatMisses consecutive intervals with no inbound
// frame, severs the connection so the owning read loop fails fast into
// the recovery path (requeue at a parent, reconnect at a child).
func (n *Node) superviseConn(c *conn) {
	interval := n.cfg.heartbeat
	if interval <= 0 {
		return
	}
	n.goTracked(func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		misses := 0
		for {
			select {
			case <-t.C:
				_ = c.send(&message{Kind: kindHeartbeat})
				if c.sinceRecv() <= interval {
					misses = 0
					continue
				}
				misses++
				sever := misses >= n.cfg.heartbeatMisses
				n.put(input{kind: inHeartbeatMiss, c: c, n: misses, sever: sever})
				if sever {
					_ = c.close()
					return
				}
			case <-c.stop:
				return
			case <-n.done:
				return
			}
		}
	})
}

// acceptLoop admits children. The hello is the first frame on a connection
// and the first bytes read from an unauthenticated peer: anything else — a
// stream that is not frames (a build that spoke gob), a hello offering no
// wire version this build speaks, silence past the handshake timeout — is
// refused: the conn is closed, and the owner records a sever of the remote
// address.
func (n *Node) acceptLoop() {
	for {
		raw, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(raw, "", n.cfg.faults, n.cfg.writeTimeout, &n.wireCtr)
		hello, err := c.recvTimeout(n.cfg.handshakeTimeout)
		if err != nil || hello.Kind != kindHello {
			c.peerName = raw.RemoteAddr().String()
			n.put(input{kind: inRefused, c: c}) // before the close, which a peer may see
			_ = c.close()
			continue
		}
		c.peer, c.peerName = hello.Name, hello.Name
		r, _ := n.ask(input{kind: inAdmit, c: c, m: *hello})
		if r.sess == nil {
			_ = c.close() // the node is closing
			continue
		}
		if err = c.send(r.msg); err == nil {
			n.goTracked(func() { n.childLoop(r.sess, c) })
			n.superviseConn(c)
		} else {
			_ = c.close()
		}
		n.put(input{kind: inAdmitted, s: r.sess, c: c, err: err})
	}
}

// childLoop reads one child's requests and relayed results and hands each
// frame to the owner.
func (n *Node) childLoop(s *childSession, c *conn) {
	for {
		m, err := c.recv()
		if err != nil {
			_ = c.close()
			n.put(input{kind: inChildLost, s: s, c: c})
			return
		}
		if m.Kind != kindHeartbeat { // receipt alone refreshed the link's proof-of-life clock
			n.put(input{kind: inChild, s: s, c: c, m: *m}) // no frame up a child link carries Data
		}
	}
}

// connectParent dials the parent and says hello: the wire version, the
// partially received transfers it offers to resume, the tasks its subtree
// still holds and the requests it has sent that no task answered. The
// hello-ack settles which partial transfers continue; the new link is then
// installed and the uplink writer sends everything owed on it — the
// requests, then every ledger entry, results computed while partitioned and
// ones written to the old conn but never acked, in arrival order. attempt
// numbers a reconnect (0: the first dial).
func (n *Node) connectParent(inflight map[uint64]*inTransfer, attempt int) (*conn, error) {
	raw, err := net.Dial("tcp", n.cfg.parent)
	if err != nil {
		return nil, fmt.Errorf("live: dial parent: %w", err)
	}
	c := newConn(raw, "parent", n.cfg.faults, n.cfg.writeTimeout, &n.wireCtr)

	hello := message{Kind: kindHello, Name: n.cfg.name, Resume: make([]resumePoint, 0, len(inflight))}
	for _, id := range slices.Sorted(maps.Keys(inflight)) {
		hello.Resume = append(hello.Resume, resumePoint{Task: id, Offset: len(inflight[id].payload)})
	}
	r, ok := n.ask(input{kind: inHello, m: hello})
	if !ok {
		_ = c.close()
		return nil, errors.New("live: node closed")
	}
	if err := c.send(r.msg); err != nil {
		_ = c.close()
		return nil, fmt.Errorf("live: hello: %w", err)
	}
	// A parent that speaks another wire version, or none (its answer does
	// not parse as a frame), fails here, bounded by the handshake timeout.
	ack, err := c.recvTimeout(n.cfg.handshakeTimeout)
	if err == nil && ack.Kind != kindHelloAck {
		err = fmt.Errorf("got frame kind %d", ack.Kind)
	}
	if err != nil {
		_ = c.close()
		return nil, fmt.Errorf("live: hello ack (wire version %d): %w", wireVersion, err)
	}
	// Written before the conn is published; recorder events on this link
	// can now carry the parent's real name.
	c.peerName = ack.Name
	// Partial transfers the parent will not resume were reclaimed on its
	// side; drop their assembly state so a fresh stream starts clean. The
	// hello counted each as a buffer being filled, so each now owes the
	// request that asks for a refill.
	maps.DeleteFunc(inflight, func(id uint64, _ *inTransfer) bool { return !slices.Contains(ack.Accepted, id) })
	if _, ok := n.ask(input{kind: inInstalled, c: c, m: *ack, n: len(hello.Resume) - len(inflight), attempt: attempt}); !ok {
		_ = c.close()
		return nil, errors.New("live: node closed")
	}
	n.superviseConn(c)
	return c, nil
}

// parentSupervisor owns the uplink's reading side: it runs the read loop
// and, when the link dies without a shutdown, re-dials with capped
// exponential backoff. Only exhausting every attempt makes the loss fatal.
func (n *Node) parentSupervisor(c *conn, inflight map[uint64]*inTransfer) {
	for {
		shutdown := n.readParent(c, inflight)
		_ = c.close()
		if shutdown {
			// Close waits on this goroutine's WaitGroup entry, so it
			// must run detached; it is idempotent.
			go n.Close()
			return
		}
		if n.closing.Load() {
			return
		}
		n.put(input{kind: inUplinkLost, c: c})
		var err error
		for attempt := 1; ; attempt++ { // re-dial under the backoff schedule
			if attempt > n.cfg.reconnectAttempts || !n.cfg.sleep(backoffDelay(attempt, n.cfg.reconnectBase, n.cfg.reconnectCap), n.done) {
				if !n.closing.Load() { // not closed mid-wait
					n.fail(fmt.Errorf("live: parent link lost; reconnect failed after %d attempts", n.cfg.reconnectAttempts))
				}
				return
			}
			if c, err = n.connectParent(inflight, attempt); err == nil {
				break
			}
		}
	}
}

// readParent consumes frames from the current uplink until it fails or
// orders a shutdown; the supervisor decides what happens next. It
// assembles chunks into inflight itself and hands the owner a segment's
// first chunk and a finished task.
func (n *Node) readParent(c *conn, inflight map[uint64]*inTransfer) (shutdown bool) {
	for {
		m, err := c.recv()
		if err != nil {
			return false
		}
		switch m.Kind {
		case kindChunk:
			t := inflight[m.Task]
			fresh := t == nil
			if fresh {
				t = &inTransfer{id: m.Task}
				inflight[m.Task] = t
			}
			// The first chunk of a new transfer segment (fresh dispatch or a
			// resume after preemption/reconnect on the parent side) is
			// recorded; a complete task leaves inflight for the owner.
			in := input{kind: inUplink, c: c, m: *m, segment: fresh || m.TraceSeq != t.segment}
			t.segment = m.TraceSeq
			complete, err := t.feed(m)
			if err != nil {
				n.fail(err)
				return false
			}
			if complete {
				delete(inflight, m.Task)
				in.t = t
			}
			if in.m.Data = nil; in.segment || complete {
				n.put(in)
			}
		case kindResultAck, kindShutdown:
			if n.put(input{kind: inUplink, c: c, m: *m}); m.Kind == kindShutdown {
				return true
			}
		case kindHeartbeat, kindHelloAck:
			// Heartbeats only refresh the proof-of-life clock; a stray
			// hello-ack after the handshake is ignored.
		default:
			// kindHello, kindRequest, kindResult and kindGoodbye flow
			// child→parent, never down the uplink. A frame of a kind this
			// build does not know (a newer peer) lands here too; dropping it
			// keeps the link alive rather than desyncing the stream.
		}
	}
}

// uplinkWriter is the only steady-state sender toward the parent. Woken by
// decide, it pulls batch after batch from the owner, each one sendBatch,
// one write, until nothing is owed. It yields once before the first pull:
// the kick typically comes with a task just handed to the compute port,
// and a compute that finishes meanwhile puts its result in the same write
// as the request its buffer freed.
func (n *Node) uplinkWriter() {
	var frames []*message
	for range n.upKick {
		runtime.Gosched()
		for n.put(input{kind: inPull}) {
			j := <-n.upJobs
			if j == nil {
				break
			}
			frames = frames[:0]
			for i := range j.msgs {
				frames = append(frames, &j.msgs[i])
			}
			if j.accepted, j.err = j.c.sendBatch(frames); j.err != nil {
				_ = j.c.close() // dead uplink: the reader fails with it and the supervisor redials
			}
		}
	}
}

// computeLoop is the node's compute port: one task at a time, as the owner
// hands them out (decide).
func (n *Node) computeLoop() {
	for t := range n.tasks {
		started := time.Now()
		out, err := n.cfg.compute(t)
		if err != nil {
			n.fail(fmt.Errorf("live: compute task %d: %w", t.ID, err))
			return
		}
		n.put(input{kind: inComputed, task: t, out: out, took: time.Since(started)})
	}
}
