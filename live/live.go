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
// all application data. Every scheduling decision uses only locally
// observable state, so subtrees can be added under any node while an
// application runs.
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
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bwcs/internal/metrics"
	"bwcs/internal/protocol"
)

// Task is one unit of application work. App names the application
// (tenant) the task belongs to; empty for single-application runs. The
// tag rides every chunk of the task's payload, so per-tenant accounting
// and round-robin sharing between tenants work at every node of the
// overlay.
type Task struct {
	ID      uint64
	Payload []byte
	App     string
}

// Result is a completed task. App echoes the task's application tag.
type Result struct {
	ID     uint64
	Output []byte
	Origin string // name of the node that computed it
	App    string
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

	// PerApp breaks the task-path counters down by application tag, for
	// tagged tasks only (single-application runs with untagged tasks keep
	// it empty).
	PerApp map[string]AppStats
}

// AppStats is one application's slice of a node's counters.
type AppStats struct {
	Computed  int64 // tasks of this app computed locally
	Forwarded int64 // tasks of this app sent to children
	Received  int64 // tasks of this app received from the parent
	Requeued  int64 // tasks of this app reclaimed and requeued
	Collected int64 // root only: results of this app delivered to Run
	Deduped   int64 // duplicate results of this app suppressed
}

// Node is a running overlay node.
//
// One goroutine, the owner (ownerLoop), holds the protocol state — the
// fields from parent on — and changes it only in response to inputs on
// inbox; it never does I/O. The conn readers, the send port, the uplink
// writer, the compute port, the dialler and the heartbeats move frames and
// run tasks: they take work the owner decided and report back.
type Node struct {
	cfg      config
	root     bool
	listener net.Listener

	// rec is the flight recorder; nil when disabled. wireSeq numbers
	// every frame the node sends, across all conns and reconnects.
	// wireCtr meters data-plane volume across all conns.
	rec     *flightRecorder
	wireSeq atomic.Uint64
	wireCtr wireCounters

	// started anchors uptime and timeline timestamps; sampler is the
	// timeline telemetry state, nil when sampling is disabled.
	started time.Time
	sampler *metrics.Sampler

	portDue time.Time // the emulated link's schedule (see paceChunk), the send port's own

	// inbox carries every input to the owner; its buffer lets readers hand
	// over a burst without a wake-up each (any size is correct: the owner
	// never blocks). The other channels carry decided work, one at a time.
	inbox    chan input
	portJobs chan []portWrite
	upKick   chan struct{} // wakes the parked uplink writer
	upJobs   chan *upJob   // its pulled batches; nil parks it
	tasks    chan Task
	results  chan Result // root only: collected results for Run

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
	// reqDeficit counts the requests owed to the parent and reqApp tags
	// the latest; the uplink writer sends them with its next batch. Every
	// buffer is at all times exactly one of: holding a task, receiving one
	// (a partial transfer), owed a request, or waiting on a request already
	// sent — so the last count needs no ledger of its own (unanswered).
	reqDeficit int
	reqApp     string
	// unacked is the result ledger: every result this node owes its
	// parent, in arrival order, retired only by a matching result ack.
	// The uplink writer is its sole sender, so wire order follows
	// ledger order even across reconnects and retransmits.
	unacked   []*resultEntry
	due       []*resultEntry  // dueResultBatch's scratch
	computing map[uint64]bool // tasks on the compute port right now
	children  []*childSession // in slot order: by link estimate, then name
	buffer    taskPool        // tasks awaiting dispatch; at the root, the application
	backlog   []Result        // root only: collected results the results channel had no room for
	stats     Stats
	status    *statusServer
	stopped   bool // Close has taken the last of the owner's state

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

// resultEntry is one slot of the unacked-result ledger: a result owed to
// the parent, keyed by task ID + origin. A successful write does not
// retire it — only the parent's ack does — so a frame lost to a severed
// or lossy link is replayed rather than silently dropped.
type resultEntry struct {
	res    Result
	sentOn *conn     // uplink the entry was last written to; nil = never sent
	sentAt time.Time // when it was last written, for the retransmit timer
}

// upJob is one uplink batch as the owner decided it: the owed requests as
// one frame, then the due ledger entries. The owner reuses the one job;
// the writer holds it from one pull to the next, and c is nil once it is
// folded back in.
type upJob struct {
	c                          *conn
	msgs                       []message
	entries                    []*resultEntry // the ledger entries msgs carries, from firstResult on
	firstResult, reqN, replays int
	told                       bool // a hello built while the write was in doubt reported reqN as sent
	accepted                   int  // filled in by the writer, with err
	err                        error
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
	n := &Node{
		cfg:       cfg,
		root:      cfg.parent == "",
		started:   time.Now(),
		computing: make(map[uint64]bool),
		inbox:     make(chan input, 64),
		portJobs:  make(chan []portWrite, 1),
		upKick:    make(chan struct{}, 1),
		upJobs:    make(chan *upJob, 1),
		tasks:     make(chan Task, 1),
		done:      make(chan struct{}),
		ownerGone: make(chan struct{}),
		failed:    make(chan struct{}),
		stats:     Stats{ByChild: map[string]int64{}, PerApp: map[string]AppStats{}},
	}
	n.core.Reset(cfg.protocol, n.root)
	if cfg.recorderCap > 0 {
		n.rec = newFlightRecorder(cfg.recorderCap)
	}
	if cfg.timelineInterval > 0 {
		// Millisecond timestamps at the sampling cadence never collide, so
		// resolution 1 keeps every pass distinct until capacity forces
		// downsampling.
		n.sampler = metrics.NewSampler(timelineSeriesCap, 1)
	}
	if n.root {
		n.results = make(chan Result, 1024)
	}
	// The paper's startup rule: one request per buffer, all owed and none
	// sent, so the first hello reports no request unanswered.
	n.reqDeficit = int(n.core.Initial())

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
	if n.sampler != nil {
		n.goTracked(n.sampleLoop)
	}
	return n, nil
}

// realSleep pauses for d, abandoning the wait when done closes. The
// reconnect backoff goes through config.sleep so tests can substitute a
// fake clock.
func realSleep(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
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
	if d > cap {
		d = cap
	}
	return d
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

// snapshot is the one source of Stats, /status and the sampler:
// built by the owner, or from the state it left once it has stopped.
func (n *Node) snapshot() statusSnapshot {
	var v statusSnapshot
	build := func() {
		v = statusSnapshot{Name: n.cfg.name, Root: n.root, Buffered: n.buffer.len(), Stats: n.stats,
			Links: map[string]float64{}, Connected: n.root || n.parent != nil}
		v.Stats.ByChild, v.Stats.PerApp = maps.Clone(n.stats.ByChild), maps.Clone(n.stats.PerApp)
		v.Stats.MaxQueued = n.buffer.peak
		for _, s := range n.children {
			if !s.gone {
				v.Children = append(v.Children, s.name)
				v.Links[s.name] = s.link.estimate()
			}
		}
	}
	if !n.query(build) {
		build()
	}
	if n.rec != nil {
		v.Stats.RecorderDropped = n.rec.dropped()
	}
	v.Stats.FramesSent = n.wireCtr.framesSent.Load()
	v.Stats.FramesReceived = n.wireCtr.framesRecv.Load()
	v.Stats.BytesSent = n.wireCtr.bytesSent.Load()
	v.Stats.BytesReceived = n.wireCtr.bytesRecv.Load()
	up := time.Since(n.started)
	v.Stats.UptimeSeconds, v.Uptime = int64(up.Seconds()), up.Round(time.Millisecond).String()
	return v
}

// Close shuts the node down: children are told to wind down, the parent
// is told this subtree is leaving for good (so it reclaims and requeues
// immediately instead of waiting out the reconnect grace), and all
// connections close. Closing the root before Run returns aborts the run.
func (n *Node) Close() error {
	if !n.closing.CompareAndSwap(false, true) { // the owner takes no admission, endpoint or port work from here on
		return nil
	}
	var (
		children []*conn
		parent   *conn
		status   *statusServer
	)
	n.query(func() {
		for _, s := range n.children {
			children = append(children, s.c)
		}
		parent, status, n.status = n.parent, n.status, nil
		n.stopped = true
	})
	if status != nil {
		_ = status.srv.Close()
	}
	close(n.done)
	for _, c := range children {
		c.farewell(&message{Kind: kindShutdown})
	}
	if parent != nil {
		parent.farewell(&message{Kind: kindGoodbye})
	}
	if n.listener != nil {
		_ = n.listener.Close()
	}
	n.wg.Wait()
	return nil
}

// Run dispatches the given tasks from the root and blocks until every
// result has been collected or ctx ends. Only the root (a node with no
// parent) may call Run.
//
// On a context deadline, Run returns the partial results alongside a
// *TimeoutError (errors.Is(err, ErrTimeout)); on cancellation it returns
// the partial results and the context's error. Re-executed tasks from
// recovered failures are deduplicated by ID: each result is delivered
// exactly once.
func (n *Node) Run(ctx context.Context, tasks []Task) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !n.root {
		return nil, errors.New("live: Run called on a non-root node")
	}
	seen := make(map[uint64]bool, len(tasks))
	for _, t := range tasks {
		if seen[t.ID] {
			return nil, fmt.Errorf("live: duplicate task id %d", t.ID)
		}
		seen[t.ID] = true
	}

	n.do(func() { // the root's pool
		n.buffer.pushAll(tasks)
		n.core.Refill(int64(len(tasks)))
	})

	out := make([]Result, 0, len(tasks))
	for len(out) < len(tasks) {
		select {
		case r := <-n.results:
			wanted, known := seen[r.ID]
			if !known {
				return out, fmt.Errorf("live: unexpected result id %d", r.ID)
			}
			if !wanted {
				continue // duplicate from a re-executed task; ignore
			}
			seen[r.ID] = false
			out = append(out, r)
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return out, &TimeoutError{Received: len(out), Expected: len(tasks)}
			}
			return out, fmt.Errorf("live: run canceled: %w", ctx.Err())
		case <-n.done:
			return out, errors.New("live: node closed during run")
		}
		if err := n.Err(); err != nil {
			return out, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// input is one entry of the owner's inbox: fn to run, or — so a busy
// reader allocates nothing per frame — a frame m it decoded on c (copied
// out, Data dropped), from child session s or, s nil, down the uplink,
// where a chunk carries its segment mark and its completed transfer t.
type input struct {
	fn      func()
	s       *childSession
	c       *conn
	m       message
	segment bool
	t       *inTransfer
}

// do hands fn to the owner, reporting false when the owner has stopped.
func (n *Node) do(fn func()) bool {
	return n.put(input{fn: fn})
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

// query runs fn on the owner and waits for it; false means the owner had
// stopped (the node closed), whether or not fn ran first.
func (n *Node) query(fn func()) bool {
	ran := make(chan struct{})
	if !n.do(func() { fn(); close(ran) }) {
		return false
	}
	select {
	case <-ran:
		return true
	case <-n.ownerGone:
		return false
	}
}

// ownerLoop is the node's one decision maker, until Close stops it. A
// wake-up runs every pending input before it decides anything, so a burst
// of frames costs one decision and at most one write per link; a deadline
// wakes it with an input of its own. Stopping, it closes the channels it
// alone sends on, so the ports wind down.
func (n *Node) ownerLoop() {
	wake := func() {}
	timer := time.AfterFunc(time.Hour, func() { n.do(wake) })
	defer func() {
		timer.Stop()
		close(n.ownerGone)
		close(n.tasks)
		close(n.portJobs)
		close(n.upKick)
		close(n.upJobs)
	}()
	for !n.stopped {
		var in input
		if len(n.backlog) == 0 {
			in = <-n.inbox
		} else {
			select {
			case in = <-n.inbox:
			case n.results <- n.backlog[0]:
				n.backlog[0] = Result{}
				n.backlog = n.backlog[1:]
				continue
			}
		}
		for more := true; more; {
			switch {
			case in.fn != nil:
				in.fn()
			case in.s != nil:
				n.childFrame(in.s, in.c, &in.m)
			default:
				n.parentFrame(&in)
			}
			select {
			case in = <-n.inbox:
			default:
				more = false
			}
		}
		if wait := n.decide(); wait > 0 {
			timer.Reset(wait)
		}
	}
}

// decide hands every idle port its next work — the compute port first (the
// node is its own highest-priority consumer), then the send port, then the
// uplink writer, which so carries the requests both just owed — and says
// how long until a grace expiry or retransmission is due (0: none).
func (n *Node) decide() time.Duration {
	if n.closing.Load() {
		return 0
	}
	wait := n.reclaim()
	if take, ok := n.core.Compute(); ok {
		t := n.buffer.pop()
		n.computing[t.ID] = true // accounted until the result enters the ledger
		n.freed(take, t.App)
		n.record(Event{Kind: EvComputeStart, Task: t.ID})
		n.tasks <- t
	}
	if !n.portBusy {
		n.portTurn()
	}
	if !n.upBusy && n.parent != nil { // the writer pulls its batch (pullUplink) once it runs
		if batch, _, _ := n.dueResultBatch(); n.reqDeficit+len(batch) > 0 {
			n.upBusy = true
			n.upKick <- struct{}{}
		}
	}
	if !n.upBusy {
		if d := n.resultRetryWait(); d > 0 && (wait == 0 || d < wait) {
			wait = d
		}
	}
	return wait
}

// bumpApp updates one application's counter slice; untagged tasks (empty
// app) keep no per-app entry.
func (n *Node) bumpApp(app string, f func(*AppStats)) {
	if app == "" {
		return
	}
	if n.stats.PerApp == nil {
		n.stats.PerApp = make(map[string]AppStats)
	}
	s := n.stats.PerApp[app]
	f(&s)
	n.stats.PerApp[app] = s
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
// (TestGoroutinesStartTracked).
func (n *Node) goTracked(fn func()) {
	if n.closing.Load() {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
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
				miss, sever := misses, misses >= n.cfg.heartbeatMisses
				n.do(func() {
					n.stats.HeartbeatMisses++
					n.record(Event{Kind: EvHeartbeatMiss, Peer: c.label(), Value: int64(miss)})
					if sever {
						n.record(Event{Kind: EvSever, Peer: c.label()})
					}
				})
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
// refused, recorded as a sever of the remote address, and the conn closed.
func (n *Node) acceptLoop() {
	for {
		raw, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		c := newConn(raw, "", n.cfg.faults, n.cfg.writeTimeout, &n.wireSeq, &n.wireCtr)
		hello, err := c.recvTimeout(n.cfg.handshakeTimeout)
		if err != nil || hello.Kind != kindHello {
			n.record(Event{Kind: EvSever, Peer: raw.RemoteAddr().String()})
			_ = c.close()
			continue
		}
		c.peer, c.peerName = hello.Name, hello.Name
		var sess *childSession
		var ack *message
		if !n.query(func() { sess, ack = n.admitChild(c, hello) }) || sess == nil {
			_ = c.close() // the node is closing
			continue
		}
		if err = c.send(ack); err == nil {
			n.goTracked(func() { n.childLoop(sess, c) })
			n.superviseConn(c)
		} else {
			_ = c.close()
		}
		n.do(func() {
			if sess.admitting = false; err != nil {
				n.markChildGone(sess, c)
			}
			n.reach(sess)
		})
	}
}

// admitChild installs a connection as a fresh child session — or, when
// the hello names a session whose link died within the reconnect grace
// window, revives that session: the handed-off tasks the hello covers
// survive, a transfer cut mid-payload resumes from the offset the hello
// offers, and everything else the child never received returns to the
// pool. Fresh or revived, the session's request count is the hello's: the
// child knows how many of its requests no task has answered; the parent
// cannot tell a request it never read from one it served into a dead link.
// It returns the session, admitting until the accept loop has written the
// hello-ack it also returns; nil while the node is closing.
func (n *Node) admitChild(c *conn, hello *message) (*childSession, *message) {
	if n.closing.Load() {
		return nil, nil
	}
	offered := make(map[uint64]int, len(hello.Resume))
	for _, rp := range hello.Resume {
		offered[rp.Task] = rp.Offset
	}
	// held is every task the child's hello still accounts for complete:
	// somewhere in its subtree, or computed with the result awaiting an
	// ack. A handed-off task outside this set (and not offered for
	// resumption) was lost with the old connection.
	held := make(map[uint64]bool, len(hello.Holding))
	for _, id := range hello.Holding {
		held[id] = true
	}
	ack := &message{Kind: kindHelloAck, Name: n.cfg.name, Codecs: []uint8{wireVersion}}

	helloSeq := n.record(Event{Kind: EvHello, Peer: hello.Name, WireSeq: hello.Seq,
		CausePeer: hello.TraceNode, CauseSeq: hello.TraceSeq})
	ack.TraceNode, ack.TraceSeq = n.cfg.name, helloSeq
	var sess *childSession
	for _, s := range n.children {
		if s.name == hello.Name && s.gone && !s.left {
			sess = s
			break
		}
	}
	if sess != nil {
		sess.c = c
		sess.gone = false
		sess.goneAt = time.Time{}
		ack.Revived = true
		n.record(Event{Kind: EvRevive, Peer: hello.Name})
		requeuedBefore := n.stats.Requeued
		// The link is in order and the port writes a child's transfers one
		// after another, several to a write, so the child offers at most one
		// partial transfer, and holds nothing written after it. An offered
		// transfer that was already handed off goes back to the port;
		// whatever else was on the port never reached the child.
		for _, rp := range hello.Resume {
			if tr := sess.outstanding[rp.Task]; tr != nil {
				delete(sess.outstanding, rp.Task)
				if sess.active != nil {
					n.requeue(sess, sess.active)
				}
				sess.active = tr
			}
		}
		if tr := sess.active; tr != nil {
			if off, ok := offered[tr.task.ID]; ok && off >= 0 && off <= len(tr.task.Payload) {
				// Resume mid-payload from the offset the hello offers.
				tr.offset = off
				tr.resumed = true
				ack.Accepted = append(ack.Accepted, tr.task.ID)
				n.stats.Resumed++
			} else {
				// A transfer still on the port never had its final chunk
				// written, so with nothing offered the child holds none of
				// it: back to the pool.
				n.requeue(sess, tr)
				sess.active = nil
			}
		}
		// Revive-time reconciliation: requeue every handed-off task the
		// hello no longer covers — not held in the subtree, not resuming,
		// no unacked result to replay. It was lost with the old
		// connection, and waiting for a grace expiry that perpetual
		// revival keeps pushing out would stall the run forever. One the
		// hello does cover stands.
		var lost []uint64
		for id := range sess.outstanding {
			if !held[id] {
				lost = append(lost, id)
			}
		}
		sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
		for _, id := range lost {
			tr := sess.outstanding[id]
			delete(sess.outstanding, id)
			n.requeue(sess, tr)
		}
		n.stats.RequeuedOnRevive += n.stats.Requeued - requeuedBefore
	} else {
		sess = &childSession{name: hello.Name, c: c, id: n.nextID, outstanding: make(map[uint64]*outTransfer)}
		n.nextID++
		sess.slot = len(n.children)
		n.children = append(n.children, sess)
		n.core.Slots = append(n.core.Slots, protocol.Slot{Child: sess.id, Down: true})
		n.resort()
	}
	if d := int64(hello.N) - n.core.Slots[sess.slot].Pending; d > 0 {
		// Requests the old connection swallowed, or that transfers requeued
		// above had consumed: registered now, with no request frame.
		n.record(Event{Kind: EvRequestServed, Peer: sess.name, Value: d})
	}
	n.core.Reconcile(sess.slot, int64(hello.N), 0, sess.active != nil)
	sess.admitting = true
	n.reach(sess)
	return sess, ack
}

// childLoop reads one child's requests and relayed results and hands each
// frame to the owner.
func (n *Node) childLoop(s *childSession, c *conn) {
	for {
		m, err := c.recv()
		if err != nil {
			_ = c.close()
			n.do(func() { n.markChildGone(s, c) })
			return
		}
		if m.Kind != kindHeartbeat { // receipt alone refreshed the link's proof-of-life clock
			n.put(input{s: s, c: c, m: *m}) // no frame up a child link carries Data
		}
	}
}

// childFrame takes one frame a child sent on c. Once the session is revived
// on a newer connection, a stale conn's frames may no longer change it.
func (n *Node) childFrame(s *childSession, c *conn, m *message) {
	switch m.Kind {
	case kindRequest:
		if s.c == c && s.slot >= 0 {
			n.core.Request(s.slot, int64(m.N), 0)
			// Recorded in the owner step that bumps pending, so per-node
			// event order matches the order the send port observes
			// serviceability.
			n.record(Event{Kind: EvRequestServed, Peer: s.name, Value: int64(m.N),
				WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
		}
	case kindResult:
		// A result is expected exactly while its task is outstanding;
		// anything else is a replay of one already relayed (or of a task
		// reclaimed and re-dispatched elsewhere) — ack it so the child
		// retires its ledger entry, but do not relay it again. The ack rides
		// the send port's next turn, one frame for all owed on c.
		r := Result{ID: m.Task, Output: m.Output, Origin: m.Origin, App: m.App}
		recvSeq := n.record(Event{Kind: EvResultRecv, Task: m.Task, Origin: m.Origin,
			Peer: s.name, WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
		if _, expected := s.outstanding[m.Task]; expected {
			delete(s.outstanding, m.Task)
			if n.root {
				n.collectRoot(r)
			} else {
				n.enqueueResult(r)
			}
		} else {
			n.stats.ResultsDeduped++
			n.bumpApp(m.App, func(s *AppStats) { s.Deduped++ })
			n.record(Event{Kind: EvResultDedupe, Task: m.Task, Origin: m.Origin, Peer: s.name})
		}
		if s.c == c && !s.gone {
			s.acks = append(s.acks, resultKey{Task: m.Task, Origin: m.Origin})
			s.ackSeq = recvSeq
		}
	case kindGoodbye:
		if s.c == c {
			s.gone = true
			s.left = true
			n.reach(s)
			n.record(Event{Kind: EvGoodbye, Peer: s.name, WireSeq: m.Seq,
				CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
		}
	default:
		// kindHello arrives only through the accept handshake, and
		// kindChunk, kindHelloAck, kindShutdown, and kindResultAck flow
		// parent→child, never up a child link. Anything here is a peer
		// protocol bug; receipt already counted as proof of life, and
		// dropping the frame is the safe response.
	}
}

// markChildGone flags a child's link dead — unless the session has
// already been revived on a newer connection — and starts the reconnect
// grace window, at whose end decide reclaims its tasks. Whoever saw the
// link fail has closed the conn.
func (n *Node) markChildGone(s *childSession, c *conn) {
	if s.c != c || s.gone {
		return
	}
	s.gone = true
	s.goneAt = time.Now()
	s.acks = s.acks[:0]
	n.reach(s)
	n.record(Event{Kind: EvSever, Peer: s.name})
}

// reach tells the core whether child s can be served: not gone, and not
// waiting for its hello-ack to be written. A reclaimed session has no slot.
func (n *Node) reach(s *childSession) {
	switch {
	case s.slot < 0:
	case s.gone || s.admitting:
		n.core.ChildDown(s.slot)
	default:
		n.core.ChildUp(s.slot)
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
	c := newConn(raw, "parent", n.cfg.faults, n.cfg.writeTimeout, &n.wireSeq, &n.wireCtr)

	hello := &message{Kind: kindHello, Codecs: []uint8{wireVersion}, Name: n.cfg.name,
		Resume: make([]resumePoint, 0, len(inflight)), Seq: c.nextSeq(), TraceNode: n.cfg.name}
	for id, t := range inflight {
		hello.Resume = append(hello.Resume, resumePoint{Task: id, Offset: len(t.payload)})
	}
	sort.Slice(hello.Resume, func(i, j int) bool { return hello.Resume[i].Task < hello.Resume[j].Task })
	partial := len(inflight)
	if !n.query(func() {
		hello.Holding = n.holding()
		hello.N = n.unanswered(partial)
		n.up.told = true // a batch still on the writer is, from here on, reported as sent
		hello.TraceSeq = n.record(Event{Kind: EvHello, Peer: "parent", WireSeq: hello.Seq})
	}) {
		_ = c.close()
		return nil, errors.New("live: node closed")
	}
	if err := c.send(hello); err != nil {
		_ = c.close()
		return nil, fmt.Errorf("live: hello: %w", err)
	}
	// A parent that speaks another wire version, or none (its answer does
	// not parse as a frame), fails here, bounded by the handshake timeout.
	ack, err := c.recvTimeout(n.cfg.handshakeTimeout)
	if err != nil {
		_ = c.close()
		return nil, fmt.Errorf("live: hello ack (wire version %d): %w", wireVersion, err)
	}
	if ack.Kind != kindHelloAck {
		_ = c.close()
		return nil, fmt.Errorf("live: expected hello ack, got frame kind %d", ack.Kind)
	}
	if ack.Name != "" {
		// Written before the conn is published; recorder events on this
		// link can now carry the parent's real name.
		c.peerName = ack.Name
	}
	ackEv := Event{Kind: EvHelloAck, Peer: c.label(), WireSeq: ack.Seq, CausePeer: ack.TraceNode, CauseSeq: ack.TraceSeq}
	if ack.Revived {
		ackEv.Value = 1
	}
	accepted := make(map[uint64]bool, len(ack.Accepted))
	for _, id := range ack.Accepted {
		accepted[id] = true
	}
	// Partial transfers the parent will not resume were reclaimed on its
	// side; drop their assembly state so a fresh stream starts clean. The
	// hello counted each as a buffer being filled, so each now owes the
	// request that asks for a refill.
	dropped := 0
	for id := range inflight {
		if !accepted[id] {
			delete(inflight, id)
			dropped++
		}
	}
	if !n.query(func() {
		n.record(ackEv)
		n.reqDeficit += dropped
		n.parent = c
		if attempt > 0 {
			n.stats.Reconnects++
			n.record(Event{Kind: EvReconnect, Peer: c.label(), Value: int64(attempt)})
		}
	}) {
		_ = c.close()
		return nil, errors.New("live: node closed")
	}
	n.superviseConn(c)
	return c, nil
}

// unanswered is the node's count of requests sent to its parent that no
// task has answered: every buffer that is not holding a task, receiving
// one (partial of them), or still owed its request. (Tasks requeued from a
// dead child can push the pool past the buffers; the count bottoms out at
// none.)
func (n *Node) unanswered(partial int) int {
	return max(0, int(n.core.Capacity)-n.buffer.len()-partial-n.reqDeficit)
}

// holding enumerates every task ID this node's subtree still accounts for:
// buffered, on the compute port, handed to the send port, delivered into a
// child subtree without a returned result, or computed with the result
// awaiting an ack. The reconnect hello carries the set so the parent can
// requeue outstanding tasks the subtree lost (revive-time reconciliation).
// Partially received transfers are conveyed separately as Resume points.
func (n *Node) holding() []uint64 {
	set := make(map[uint64]bool, n.buffer.len()+len(n.unacked)+len(n.computing))
	n.buffer.each(func(t Task) { set[t.ID] = true })
	for id := range n.computing {
		set[id] = true
	}
	for _, s := range n.children {
		if s.active != nil {
			set[s.active.task.ID] = true
		}
		for id := range s.outstanding {
			set[id] = true
		}
	}
	for _, e := range n.unacked {
		set[e.res.ID] = true
	}
	ids := make([]uint64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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
		n.do(func() {
			n.parent = nil // outbound work is owed until the link is back
			n.record(Event{Kind: EvSever, Peer: c.label()})
		})
		next, ok := n.reconnect(inflight)
		if !ok {
			if !n.closing.Load() {
				n.fail(fmt.Errorf("live: parent link lost; reconnect failed after %d attempts", n.cfg.reconnectAttempts))
			}
			return
		}
		c = next
	}
}

// reconnect re-dials the parent under the backoff schedule and returns the
// new link, if one was established.
func (n *Node) reconnect(inflight map[uint64]*inTransfer) (*conn, bool) {
	for attempt := 1; attempt <= n.cfg.reconnectAttempts; attempt++ {
		if !n.cfg.sleep(backoffDelay(attempt, n.cfg.reconnectBase, n.cfg.reconnectCap), n.done) {
			return nil, false // node closed mid-wait
		}
		if c, err := n.connectParent(inflight, attempt); err == nil {
			return c, true
		}
	}
	return nil, false
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
			if t == nil {
				t = &inTransfer{id: m.Task}
				inflight[m.Task] = t
			}
			// The first chunk of a new transfer segment (fresh dispatch or a
			// resume after preemption/reconnect on the parent side) is
			// recorded; a complete task leaves inflight for the owner.
			in := input{c: c, m: *m, segment: m.TraceSeq != t.segment || m.TraceNode != t.segmentFrom}
			t.segment, t.segmentFrom = m.TraceSeq, m.TraceNode
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
		case kindResultAck:
			n.put(input{c: c, m: *m})
		case kindShutdown:
			n.put(input{c: c, m: *m})
			return true
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

// parentFrame takes one frame that came down the uplink. A chunk opens a
// segment or completes a task t, which the node records as received on
// its own last chunk and buffers; the parent is told nothing, having
// handed the task off when it wrote that chunk.
func (n *Node) parentFrame(in *input) {
	m, peer := &in.m, in.c.label()
	switch m.Kind {
	case kindChunk:
		if in.segment {
			n.record(Event{Kind: EvChunkRecv, Task: m.Task, Peer: peer, Off: m.Offset,
				WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
		}
		if t := in.t; t != nil {
			n.record(Event{Kind: EvTaskReceived, Task: t.id, Peer: peer,
				Off: len(t.payload), CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			n.buffer.push(Task{ID: t.id, Payload: t.payload, App: t.app})
			n.core.Arrived()
			n.stats.Received++
			n.bumpApp(t.app, func(s *AppStats) { s.Received++ })
		}
	case kindResultAck:
		for _, k := range m.Acks {
			n.retireResult(k.Task, k.Origin)
			n.record(Event{Kind: EvResultAck, Task: k.Task, Origin: k.Origin, Peer: peer,
				WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
		}
	case kindShutdown:
		n.record(Event{Kind: EvShutdown, Peer: peer, WireSeq: m.Seq})
	}
}

// collectRoot hands a result to the root's Run loop, through the owner's
// backlog when the results channel is full.
func (n *Node) collectRoot(r Result) {
	n.bumpApp(r.App, func(s *AppStats) { s.Collected++ })
	n.record(Event{Kind: EvResultCollect, Task: r.ID, Origin: r.Origin})
	if len(n.backlog) == 0 {
		select {
		case n.results <- r:
			return
		default:
		}
	}
	n.backlog = append(n.backlog, r)
}

// enqueueResult appends a result to the unacked ledger unless an entry
// with the same task ID + origin is already pending (a duplicate from a
// re-delivered task; it would be deduplicated upstream anyway). Every
// uplink result routes through the ledger — there is no direct send path
// — so a frame lost to a just-severed conn, a scripted drop, or a
// disconnect is always replayed: only the parent's ack retires an entry.
func (n *Node) enqueueResult(r Result) {
	for _, e := range n.unacked {
		if e.res.ID == r.ID && e.res.Origin == r.Origin {
			n.stats.ResultsDeduped++
			n.bumpApp(r.App, func(s *AppStats) { s.Deduped++ })
			return
		}
	}
	n.unacked = append(n.unacked, &resultEntry{res: r})
}

// pullUplink is the uplink writer's input: it folds in the batch the
// writer last wrote, if any, and hands it the next, or nil — the writer
// parks — once nothing is owed. A cut batch loses nothing the node knows
// unsent: unaccepted requests are owed again (unless a hello built
// meanwhile reported them sent, and the parent registered them on its
// word), and unaccepted results stay in the ledger untouched. A failed
// write retires the uplink in the step that marks what it carried, so no
// later batch can follow it onto the dead conn.
func (n *Node) pullUplink() {
	if j := &n.up; j.c != nil {
		if j.accepted >= j.firstResult {
			n.stats.Requests += int64(j.reqN)
		} else if !j.told {
			n.reqDeficit += j.reqN // cut before the request: owed again
		}
		now := time.Now()
		for _, e := range j.entries[:max(j.accepted-j.firstResult, 0)] {
			e.sentOn = j.c
			e.sentAt = now
		}
		n.stats.ResultsReplayed += int64(j.replays)
		if j.err != nil && n.parent == j.c {
			n.parent = nil // the writer closed it; the supervisor redials
		}
		j.c = nil
	}
	j := n.nextUplink()
	n.upBusy = j != nil
	n.upJobs <- j
}

// nextUplink builds everything owed on the link as one batch, for one
// write: the owed requests as one frame, then the due ledger entries; nil
// when nothing is owed or there is no link.
//
// The ledger is walked in arrival order, (re)sending every entry not yet
// written to the current parent conn — which after a reconnect replays
// all outstanding results — and, on a live link, retransmitting entries
// unacked past the resultRetry deadline. Single-sender FIFO means replay
// order always matches arrival order. Sends are pipelined: acks stream
// back asynchronously and retire entries as they arrive; one acked while
// its batch is on the writer is sent redundantly and deduplicated upstream
// — exactly-once is preserved by the parent's dedupe, not by the writer's
// timing.
func (n *Node) nextUplink() *upJob {
	if n.parent == nil || n.closing.Load() {
		return nil
	}
	batch, c, replays := n.dueResultBatch()
	if n.reqDeficit+len(batch) == 0 {
		return nil
	}
	j := &n.up
	j.c, j.entries, j.replays, j.told = c, batch, replays, false
	// Sent from here on: the parent may answer the moment the bytes leave.
	j.reqN, n.reqDeficit = n.reqDeficit, 0
	j.msgs = j.msgs[:0]
	if j.reqN > 0 {
		wire := c.nextSeq()
		reqSeq := n.record(Event{Kind: EvRequestSent, Peer: c.label(), Value: int64(j.reqN), WireSeq: wire})
		j.msgs = append(j.msgs, message{Kind: kindRequest, N: j.reqN, App: n.reqApp,
			Seq: wire, TraceNode: n.cfg.name, TraceSeq: reqSeq})
	}
	j.firstResult = len(j.msgs)
	for _, e := range batch {
		kind := EvResultSend
		if e.sentOn != nil {
			kind = EvResultReplay
		}
		wire := c.nextSeq()
		sendSeq := n.record(Event{Kind: kind, Task: e.res.ID, Origin: e.res.Origin,
			Peer: c.label(), WireSeq: wire})
		j.msgs = append(j.msgs, message{Kind: kindResult, Task: e.res.ID, Output: e.res.Output, Origin: e.res.Origin,
			App: e.res.App, Seq: wire, TraceNode: n.cfg.name, TraceSeq: sendSeq})
	}
	return j
}

// uplinkWriter is the only steady-state sender toward the parent. Woken by
// decide, it pulls batch after batch from the owner, each one sendBatch,
// one write, until nothing is owed. It yields once before the first pull:
// the kick typically comes with a task just handed to the compute port,
// and a compute that finishes meanwhile puts its result in the same write
// as the request its buffer freed.
func (n *Node) uplinkWriter() {
	var frames []*message
	pull := func() { n.pullUplink() }
	for range n.upKick {
		runtime.Gosched()
		for n.do(pull) {
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

// maxResultBatch caps how many ledger entries one writer round sends; a
// longer backlog simply takes several rounds back to back.
const maxResultBatch = 128

// dueResultBatch snapshots, in ledger (arrival) order, every entry due
// on the wire: entries never written to the current uplink (first send,
// or replay after a reconnect) and — when retransmission is enabled —
// entries unacked past the retry deadline. replays counts the entries
// being retransmitted rather than first-sent. The batch is the uplink
// writer's reusable scratch.
func (n *Node) dueResultBatch() (batch []*resultEntry, c *conn, replays int) {
	c = n.parent
	if c == nil {
		return nil, nil, 0
	}
	batch = n.due[:0]
	retry := n.cfg.resultRetry
	for _, e := range n.unacked {
		due := e.sentOn != c
		if !due && retry > 0 && time.Since(e.sentAt) >= retry {
			due = true
		}
		if !due {
			continue
		}
		if e.sentOn != nil {
			replays++
		}
		batch = append(batch, e)
		if len(batch) == maxResultBatch {
			break
		}
	}
	n.due = batch
	return batch, c, replays
}

// resultRetryWait reports how long until the earliest-sent unacked entry
// hits its retransmit deadline; 0 means no timer is needed (retry
// disabled, link down, or ledger empty).
func (n *Node) resultRetryWait() time.Duration {
	retry := n.cfg.resultRetry
	if retry <= 0 || n.parent == nil || len(n.unacked) == 0 {
		return 0
	}
	earliest := time.Duration(-1)
	for _, e := range n.unacked {
		if e.sentAt.IsZero() {
			continue
		}
		if d := retry - time.Since(e.sentAt); earliest < 0 || d < earliest {
			earliest = d
		}
	}
	if earliest < 0 {
		return 0
	}
	if earliest < time.Millisecond {
		earliest = time.Millisecond
	}
	return earliest
}

// retireResult removes the ledger entry matching an ack.
func (n *Node) retireResult(task uint64, origin string) {
	for i, e := range n.unacked {
		if e.res.ID == task && e.res.Origin == origin {
			n.unacked = append(n.unacked[:i], n.unacked[i+1:]...)
			n.stats.ResultAcks++
			return
		}
	}
}

// freed owes the parent the requests the core issued for a taken task:
// one for the buffer it left, one more for a buffer grown in its place.
// The uplink writer sends what is owed, as one frame, whenever there is a
// parent. app tags the request with the application whose freed buffer
// fired it — informational, exactly like the engine: requests grant
// anonymous capacity, the parent's own round-robin between tenants decides
// whose task fills it.
func (n *Node) freed(t protocol.Take, app string) {
	for _, owed := range [...]bool{t.Request, t.Grew} {
		if owed {
			n.reqDeficit++
			n.reqApp = app
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
		took := time.Since(started)
		n.do(func() { n.computed(t, out, took) })
	}
}

// computed takes a finished computation: the result goes to the local
// collector (root) or the ledger, and only then does the task leave
// computing, so a reconnect hello always accounts for it.
func (n *Node) computed(t Task, out []byte, took time.Duration) {
	n.record(Event{Kind: EvComputeDone, Task: t.ID, Origin: n.cfg.name, Value: took.Nanoseconds()})
	n.stats.Computed++
	n.bumpApp(t.App, func(s *AppStats) { s.Computed++ })
	r := Result{ID: t.ID, Output: out, Origin: n.cfg.name, App: t.App}
	if n.root {
		n.collectRoot(r)
	} else {
		n.enqueueResult(r)
	}
	delete(n.computing, t.ID)
	n.core.ComputeDone()
	n.freed(protocol.Take{Grew: n.core.G3()}, t.App)
}
