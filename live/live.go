// Package live is a working distributed implementation of the paper's
// autonomous bandwidth-centric scheduling protocol over real TCP
// connections — the prototype its future-work section calls for.
//
// Nodes form a tree overlay: each node listens for children and, except at
// the root, connects to its parent. Scheduling is exactly the paper's:
//
//   - request-driven — a node sends one request up whenever one of its
//     task buffers frees (at the start of a local computation or of a
//     downstream forward);
//   - bandwidth-centric — a parent serves the requesting child with the
//     smallest *measured* communication time (an EWMA of observed chunk
//     send times; no global information);
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
//   - Every link is supervised by heartbeats (WithHeartbeat) and
//     per-message write deadlines (WithWriteTimeout); a silent or stalled
//     link is severed rather than hanging the run.
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
//     retransmitted on a lossy link (WithResultRetry). At revive time
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
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bwcs/internal/metrics"
)

// Task is one unit of application work. App names the application
// (tenant) the task belongs to; empty for single-application runs. The
// tag rides every chunk of the task's payload, so per-tenant accounting
// and weighted sharing work at every node of the overlay.
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

// Config describes one node of the overlay. Prefer the Start constructor
// with Options; StartConfig accepts a literal Config for callers built
// against the positional API.
type Config struct {
	// Name identifies the node in results and statistics.
	Name string
	// Listen is the address to accept children on; empty for leaves.
	// Use "127.0.0.1:0" to pick a free port (see Node.Addr).
	Listen string
	// Parent is the parent node's address; empty for the root.
	Parent string
	// Buffers is the number of task buffers (the paper's FB); the
	// headline protocol uses 3.
	Buffers int
	// NonInterruptible disables chunk-level preemption at the send port
	// (the paper's non-IC variant).
	NonInterruptible bool
	// ChunkSize is the payload slice streamed per send-port turn;
	// default 4096 bytes.
	ChunkSize int
	// Compute executes tasks; required.
	Compute ComputeFunc
	// LinkDelay, when non-nil, paces chunks to the named child at one per
	// delay — a deterministic stand-in for heterogeneous link bandwidth in
	// tests and demos (the measured priorities then reflect it, exactly as
	// they would reflect real bandwidth). The send port is serial, so all
	// children share one schedule.
	LinkDelay func(childName string) time.Duration
	// AppWeights are per-application sharing weights: when tasks of
	// several applications sit buffered at once, the node dispatches them
	// by weighted round-robin over the applications present (missing or
	// non-positive entries weigh 1). Bandwidth-centric child selection is
	// untouched — weights pick *whose* task moves, the measured link
	// priority picks *where*.
	AppWeights map[string]int64

	// HeartbeatInterval is the per-link supervision period: each link
	// sends a heartbeat every interval and counts silent intervals
	// inbound. 0 means the 1s default; negative disables supervision.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive silent intervals sever a
	// link; default 3.
	HeartbeatMisses int
	// WriteTimeout bounds each outbound frame; 0 means the 10s default,
	// negative disables the deadline.
	WriteTimeout time.Duration
	// ReconnectBase and ReconnectCap shape the capped exponential backoff
	// of parent re-dials: attempt k sleeps min(base<<(k-1), cap).
	// Defaults 100ms and 2s.
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
	// ReconnectAttempts is how many re-dials a disconnected node makes
	// before declaring the parent lost; 0 means the default 5, negative
	// disables reconnection entirely.
	ReconnectAttempts int
	// ReconnectGrace is how long a parent keeps a dead child's session
	// revivable before reclaiming its tasks; 0 means the default 5s,
	// negative reclaims immediately.
	ReconnectGrace time.Duration
	// ResultRetry is how long an unacknowledged result may sit on a live
	// uplink before it is retransmitted; 0 means the default 2s,
	// negative disables retransmission (unacked results then replay only
	// after a reconnect).
	ResultRetry time.Duration
	// HandshakeTimeout bounds the hello / hello-ack exchange on each
	// side; 0 means the 5s default.
	HandshakeTimeout time.Duration
	// Faults, when non-nil, is a deterministic fault-injection script
	// consulted on every frame this node sends or receives.
	Faults *FaultPlan
	// RecorderCap is the flight recorder's ring capacity in events;
	// 0 means the 8192 default, negative disables the recorder. Overflow
	// evicts the oldest events and counts them in Stats.RecorderDropped.
	RecorderCap int
	// TimelineInterval is the telemetry sampling cadence: every interval
	// the node records its task and wire byte rates and buffered depth
	// into the bounded series /timeline serves. 0 means the 1s default;
	// negative disables sampling (and /timeline answers 404).
	TimelineInterval time.Duration

	// sleep is the backoff clock, replaceable by tests; nil means real
	// time.Sleep interruptible by node shutdown.
	sleep func(d time.Duration, done <-chan struct{}) bool
}

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
	// seconds since StartConfig returned it.
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
type Node struct {
	cfg      Config
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

	// portMsgs and portFrames are the send port's reusable chunk-batch
	// scratch; touched only by the sendPort goroutine. portDue is the
	// emulated link's schedule (see paceChunk), likewise the port's own.
	portMsgs   []message
	portFrames []*message
	portDue    time.Time

	mu         sync.Mutex
	parentName string // parent's node name, learned from its hello-ack
	parent     *conn  // current uplink; nil while disconnected (or root)
	// reqDeficit counts the requests owed to the parent and reqApp tags
	// the latest; upAcks are the final-chunk acks owed on the current
	// uplink. The uplink writer sends both with its next write. Every
	// buffer is at all times exactly one of: holding a task, receiving one
	// (inflight), owed a request, or waiting on a request already sent —
	// so the last count needs no ledger of its own (unansweredLocked).
	// helloEpoch counts the hellos that have reported it, so a writer whose
	// request frame never left knows whether the parent was told it had.
	reqDeficit int
	helloEpoch int
	reqApp     string
	upAcks     []chunkAck
	// unacked is the result ledger: every result this node owes its
	// parent, in arrival order, retired only by a matching result ack.
	// The uplink writer is its sole sender, so wire order follows
	// ledger order even across reconnects and retransmits.
	unacked   []*resultEntry
	due       []*resultEntry  // dueResultBatch's scratch
	computing map[uint64]bool // tasks on the compute port right now
	children  []*childSession
	buffer    taskPool    // tasks awaiting dispatch; at the root, the application
	results   chan Result // root only: collected results
	inflight  map[uint64]*inTransfer
	stats     Stats
	status    *statusServer
	closed    bool
	err       error

	kick     chan struct{} // wakes the send port
	comp     chan struct{} // wakes the compute loop
	resKick  chan struct{} // wakes the uplink writer
	done     chan struct{} // closed by Close
	failed   chan struct{} // closed on the first fatal error
	failOnce sync.Once
	wg       sync.WaitGroup
}

// childSession is the parent-side state for one connected child.
type childSession struct {
	name    string
	c       *conn
	pending int  // outstanding requests
	link    ewma // measured per-chunk communication time
	// active is the transfer the send port is still writing; the port turn
	// that builds its final chunk hands it off to outstanding.
	active *outTransfer
	gone   bool
	left   bool      // announced a deliberate departure: reclaim without grace
	goneAt time.Time // when the link died, for the reconnect grace window
	// admitting marks a revived session whose hello-ack is not written yet:
	// the send port must not put a chunk on the new conn ahead of it.
	admitting bool
	// outstanding holds every task handed off into this child's subtree
	// whose result has not yet come back through this node. A task has
	// exactly one owner at every instant — active xor outstanding — and
	// enters outstanding before its final chunk is written, so not even
	// the fastest child's result can arrive unexpected. If the child dies,
	// these are requeued and re-executed (at-least-once semantics; the
	// root deduplicates results by task ID).
	outstanding map[uint64]*outTransfer
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

// chunkAck is a final-chunk ack awaiting the uplink writer: the task, the
// bytes received, and the recorder sequence of its task-received event.
type chunkAck struct {
	task     uint64
	got      int
	traceSeq uint64
}

// defaultHandshakeTimeout bounds the hello / hello-ack exchange when
// Config.HandshakeTimeout is unset.
const defaultHandshakeTimeout = 5 * time.Second

// chunkBatch is the most chunks of one transfer the send port writes per
// port turn (one buffer, one syscall). Preemption happens between turns,
// so the batch trades preemption granularity for throughput; a LinkDelay,
// which is emulated per chunk, takes single-chunk turns instead.
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

// StartConfig launches a node from a literal Config. Leaves connect to
// their parent immediately; the root becomes ready to Run once started.
//
// Deprecated: use Start, which names the node and takes functional
// Options with documented defaults.
func StartConfig(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("live: node needs a name")
	}
	if cfg.Compute == nil {
		return nil, errors.New("live: node needs a Compute function")
	}
	if cfg.Buffers < 1 {
		return nil, fmt.Errorf("live: buffers %d < 1", cfg.Buffers)
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4096
	}
	switch {
	case cfg.HeartbeatInterval == 0:
		cfg.HeartbeatInterval = time.Second
	case cfg.HeartbeatInterval < 0:
		cfg.HeartbeatInterval = 0 // disabled
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	switch {
	case cfg.WriteTimeout == 0:
		cfg.WriteTimeout = 10 * time.Second
	case cfg.WriteTimeout < 0:
		cfg.WriteTimeout = 0 // disabled
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = 100 * time.Millisecond
	}
	if cfg.ReconnectCap <= 0 {
		cfg.ReconnectCap = 2 * time.Second
	}
	switch {
	case cfg.ReconnectAttempts == 0:
		cfg.ReconnectAttempts = 5
	case cfg.ReconnectAttempts < 0:
		cfg.ReconnectAttempts = 0 // disabled
	}
	switch {
	case cfg.ReconnectGrace == 0:
		cfg.ReconnectGrace = 5 * time.Second
	case cfg.ReconnectGrace < 0:
		cfg.ReconnectGrace = 0 // reclaim immediately
	}
	switch {
	case cfg.ResultRetry == 0:
		cfg.ResultRetry = 2 * time.Second
	case cfg.ResultRetry < 0:
		cfg.ResultRetry = 0 // retransmit only on reconnect
	}
	switch {
	case cfg.TimelineInterval == 0:
		cfg.TimelineInterval = defaultTimelineInterval
	case cfg.TimelineInterval < 0:
		cfg.TimelineInterval = 0 // disabled
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = defaultHandshakeTimeout
	}
	if cfg.sleep == nil {
		cfg.sleep = realSleep
	}

	recCap := cfg.RecorderCap
	if recCap == 0 {
		recCap = defaultRecorderCap
	}
	n := &Node{
		cfg:       cfg,
		root:      cfg.Parent == "",
		started:   time.Now(),
		buffer:    taskPool{weights: cfg.AppWeights},
		inflight:  make(map[uint64]*inTransfer),
		computing: make(map[uint64]bool),
		kick:      make(chan struct{}, 1),
		comp:      make(chan struct{}, 1),
		resKick:   make(chan struct{}, 1),
		done:      make(chan struct{}),
		failed:    make(chan struct{}),
	}
	n.stats.ByChild = make(map[string]int64)
	if recCap > 0 {
		n.rec = newFlightRecorder(recCap)
	}
	if cfg.TimelineInterval > 0 {
		// Millisecond timestamps at the sampling cadence never collide, so
		// resolution 1 keeps every pass distinct until capacity forces
		// downsampling.
		n.sampler = metrics.NewSampler(timelineSeriesCap, 1)
	}

	if cfg.Listen != "" {
		l, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("live: listen: %w", err)
		}
		n.listener = l
		n.goTracked(n.acceptLoop)
	}
	if n.root {
		n.results = make(chan Result, 1024)
	} else {
		// The paper's startup rule: one request per buffer, all owed and
		// none sent, so the first hello reports no request unanswered.
		n.reqDeficit = cfg.Buffers
		if err := n.connectParent(); err != nil {
			n.Close()
			return nil, err
		}
		n.goTracked(n.parentSupervisor)
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
// reconnect backoff goes through Config.sleep so tests can substitute a
// fake clock.
func realSleep(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
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
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.MaxQueued = n.buffer.peak
	s.ByChild = make(map[string]int64, len(n.stats.ByChild))
	for k, v := range n.stats.ByChild {
		s.ByChild[k] = v
	}
	s.PerApp = make(map[string]AppStats, len(n.stats.PerApp))
	for k, v := range n.stats.PerApp {
		s.PerApp[k] = v
	}
	if n.rec != nil {
		s.RecorderDropped = n.rec.dropped()
	}
	s.FramesSent = n.wireCtr.framesSent.Load()
	s.FramesReceived = n.wireCtr.framesRecv.Load()
	s.BytesSent = n.wireCtr.bytesSent.Load()
	s.BytesReceived = n.wireCtr.bytesRecv.Load()
	s.UptimeSeconds = int64(time.Since(n.started).Seconds())
	return s
}

// countSendError tallies a failed ack send. The connection's read loop
// observes the same dead link and drives recovery, so nothing else needs
// doing here; the counter lets operators correlate replay churn with
// write-path failures.
func (n *Node) countSendError() {
	n.mu.Lock()
	n.stats.SendErrors++
	n.mu.Unlock()
}

// parentLabel is the uplink's display name for flight-recorder events:
// the parent's node name once its hello-ack revealed it, "parent" before.
func (n *Node) parentLabel() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.parentName != "" {
		return n.parentName
	}
	return "parent"
}

// Close shuts the node down: children are told to wind down, the parent
// is told this subtree is leaving for good (so it reclaims and requeues
// immediately instead of waiting out the reconnect grace), and all
// connections close. Closing the root before Run returns aborts the run.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	children := append([]*childSession(nil), n.children...)
	parent := n.parent
	status := n.status
	n.status = nil
	n.mu.Unlock()

	if status != nil {
		_ = status.srv.Close()
	}
	close(n.done)
	for _, ch := range children {
		_ = ch.c.send(&message{Kind: kindShutdown}) //lint:bwvet-ignore best-effort farewell on teardown; an unreachable child recovers via supervision
		_ = ch.c.close()
	}
	if parent != nil {
		_ = parent.send(&message{Kind: kindGoodbye}) //lint:bwvet-ignore best-effort farewell on teardown; a dead parent severs us anyway
		_ = parent.close()
	}
	if n.listener != nil {
		_ = n.listener.Close()
	}
	n.wake(n.kick)
	n.wake(n.comp)
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

	n.mu.Lock()
	n.buffer.pushAll(tasks) // the root's pool
	n.mu.Unlock()
	n.wake(n.kick)
	n.wake(n.comp)

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

// RunTimeout dispatches tasks with the deadline expressed as a duration.
//
// Deprecated: use Run with a context carrying the deadline.
func (n *Node) RunTimeout(tasks []Task, timeout time.Duration) ([]Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return n.Run(ctx, tasks)
}

// bumpApp updates one application's counter slice; untagged tasks (empty
// app) keep no per-app entry. Callers hold n.mu.
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

// wake delivers a non-blocking signal.
func (n *Node) wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// fail records the first fatal error and shuts down wakeups.
func (n *Node) fail(err error) {
	if err == nil {
		return
	}
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.mu.Unlock()
	n.failOnce.Do(func() { close(n.failed) })
	n.wake(n.kick)
	n.wake(n.comp)
}

// isClosed reports whether Close has begun.
func (n *Node) isClosed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// goTracked runs fn on a goroutine counted by the node's WaitGroup and
// reports true, unless shutdown has already begun (Close flips closed
// under the same lock before waiting, so the Add cannot race the Wait).
// It is the only place a node goroutine starts and the only place the
// WaitGroup is counted up or down, so none can be spawned that Close
// does not wait for (TestGoroutinesStartTracked).
func (n *Node) goTracked(fn func()) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		fn()
	}()
	return true
}

// superviseConn watches one link: it sends a heartbeat every interval
// and, after HeartbeatMisses consecutive intervals with no inbound
// frame, severs the connection so the owning read loop fails fast into
// the recovery path (requeue at a parent, reconnect at a child).
func (n *Node) superviseConn(c *conn) {
	interval := n.cfg.HeartbeatInterval
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
				_ = c.send(&message{Kind: kindHeartbeat}) //lint:bwvet-ignore a failed probe shows up as recv silence below and supervision severs the link
				if c.sinceRecv() > interval {
					misses++
					n.mu.Lock()
					n.stats.HeartbeatMisses++
					n.mu.Unlock()
					n.record(Event{Kind: EvHeartbeatMiss, Peer: c.label(), Value: int64(misses)})
					if misses >= n.cfg.HeartbeatMisses {
						n.record(Event{Kind: EvSever, Peer: c.label()})
						_ = c.close()
						return
					}
				} else {
					misses = 0
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
		c := newConn(raw, "", n.cfg.Faults, n.cfg.WriteTimeout, &n.wireSeq, &n.wireCtr)
		hello, err := c.recvTimeout(n.cfg.HandshakeTimeout)
		if err != nil || hello.Kind != kindHello {
			n.record(Event{Kind: EvSever, Peer: raw.RemoteAddr().String()})
			_ = c.close()
			continue
		}
		c.peer = hello.Name
		c.peerName = hello.Name
		n.admitChild(c, hello)
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
func (n *Node) admitChild(c *conn, hello *message) {
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
	ack := &message{Kind: kindHelloAck, Name: n.cfg.Name, Codecs: []uint8{wireVersion}}

	n.mu.Lock()
	helloSeq := n.record(Event{Kind: EvHello, Peer: hello.Name, WireSeq: hello.Seq,
		CausePeer: hello.TraceNode, CauseSeq: hello.TraceSeq})
	ack.TraceNode, ack.TraceSeq = n.cfg.Name, helloSeq
	var sess *childSession
	var oldConn *conn
	for _, s := range n.children {
		if s.name == hello.Name && s.gone && !s.left {
			sess = s
			break
		}
	}
	if sess != nil {
		oldConn = sess.c
		sess.c = c
		sess.gone, sess.admitting = false, true
		sess.goneAt = time.Time{}
		ack.Revived = true
		n.record(Event{Kind: EvRevive, Peer: hello.Name})
		requeuedBefore := n.stats.Requeued
		// The link is in order and the port writes one transfer per child
		// at a time, so the child offers at most one partial transfer, and
		// holds everything handed off before it and nothing written after.
		// An offered transfer that was already handed off goes back to the
		// port; whatever else was on the port never reached the child.
		for _, rp := range hello.Resume {
			if tr := sess.outstanding[rp.Task]; tr != nil {
				delete(sess.outstanding, rp.Task)
				if sess.active != nil {
					n.requeueLocked(sess, sess.active)
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
				n.requeueLocked(sess, tr)
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
			n.requeueLocked(sess, tr)
		}
		n.stats.RequeuedOnRevive += n.stats.Requeued - requeuedBefore
	} else {
		sess = &childSession{name: hello.Name, c: c, outstanding: make(map[uint64]*outTransfer)}
		n.children = append(n.children, sess)
	}
	if d := hello.N - sess.pending; d > 0 {
		// Requests the old connection swallowed, or that transfers requeued
		// above had consumed: registered now, with no request frame.
		n.record(Event{Kind: EvRequestServed, Peer: sess.name, Value: int64(d)})
	}
	sess.pending = hello.N
	n.mu.Unlock()
	if oldConn != nil {
		_ = oldConn.close()
	}

	err := c.send(ack)
	n.mu.Lock()
	sess.admitting = false
	n.mu.Unlock()
	if err != nil {
		_ = c.close()
		n.markChildGone(sess, c)
		return
	}
	n.goTracked(func() { n.childLoop(sess, c) })
	n.superviseConn(c)
	n.wake(n.kick)
}

// childLoop reads one child's requests, acks, and relayed results. It is
// bound to the connection it was started with: once the session is
// revived on a newer connection, a stale loop may no longer mutate it.
func (n *Node) childLoop(s *childSession, c *conn) {
	for {
		if c.br.Buffered() == 0 {
			// The next recv may block: the acks queued for the results one
			// read delivered leave now, in one write (unless a chunk write
			// to this child took them along first).
			if err := c.flush(); err != nil {
				n.countSendError() // recv fails on the same dead link below
			}
		}
		m, err := c.recv()
		if err != nil {
			n.markChildGone(s, c)
			return
		}
		switch m.Kind {
		case kindRequest:
			n.mu.Lock()
			if s.c == c {
				s.pending += m.N
				// Recorded in the same critical section as the pending
				// bump, so per-node event order matches the order the
				// send port observes serviceability.
				n.record(Event{Kind: EvRequestServed, Peer: s.name, Value: int64(m.N),
					WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			}
			n.mu.Unlock()
			n.wake(n.kick)
		case kindResult:
			// A result is expected exactly while its task is outstanding;
			// anything else is a replay of one already relayed (or of a
			// task reclaimed and re-dispatched elsewhere) — ack it so the
			// child retires its ledger entry, but do not relay it again.
			r := Result{ID: m.Task, Output: m.Output, Origin: m.Origin, App: m.App}
			n.mu.Lock()
			recvSeq := n.record(Event{Kind: EvResultRecv, Task: m.Task, Origin: m.Origin,
				Peer: s.name, WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			_, expected := s.outstanding[m.Task]
			if expected {
				delete(s.outstanding, m.Task)
				if !n.root {
					// Commit to this node's own ledger atomically with the
					// outstanding delete, so a concurrent reconnect hello
					// never catches the task accounted nowhere.
					n.enqueueResultLocked(r)
				}
			} else {
				n.stats.ResultsDeduped++
				n.bumpApp(m.App, func(s *AppStats) { s.Deduped++ })
				n.record(Event{Kind: EvResultDedupe, Task: m.Task, Origin: m.Origin, Peer: s.name})
			}
			n.mu.Unlock()
			if expected {
				if n.root {
					n.collectRoot(r)
				} else {
					n.wake(n.resKick)
				}
			}
			if err := c.queue(&message{Kind: kindResultAck, Task: m.Task, Origin: m.Origin,
				TraceNode: n.cfg.Name, TraceSeq: recvSeq}); err != nil {
				// The read loop owning c fails on the same dead link and
				// recovers; the child replays the unacked result then.
				n.countSendError()
			}
		case kindChunkAck:
			// It gates nothing — the task was handed off before its last
			// write — and decides nothing at a revive, where the hello
			// speaks for the child: it is the recorder's end of the transfer.
			if !m.Last {
				continue
			}
			n.mu.Lock()
			if s.c == c {
				n.record(Event{Kind: EvChunkAck, Task: m.Task, Peer: s.name, Off: m.Offset,
					Value: 1, WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			}
			n.mu.Unlock()
		case kindGoodbye:
			n.mu.Lock()
			if s.c == c {
				s.gone = true
				s.left = true
				n.record(Event{Kind: EvGoodbye, Peer: s.name, WireSeq: m.Seq,
					CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			}
			n.mu.Unlock()
			n.wake(n.kick)
		case kindHeartbeat:
			// Receipt alone refreshed the link's proof-of-life clock.
		default:
			// kindHello arrives only through the accept handshake, and
			// kindChunk, kindHelloAck, kindShutdown, and kindResultAck flow
			// parent→child, never up a child link. Anything here is a peer
			// protocol bug; receipt already counted as proof of life, and
			// dropping the frame is the safe response.
		}
	}
}

// markChildGone flags a child's link dead — unless the session has
// already been revived on a newer connection — and schedules the reclaim
// wakeup for when the reconnect grace window expires.
func (n *Node) markChildGone(s *childSession, c *conn) {
	n.mu.Lock()
	if s.c != c || s.gone {
		n.mu.Unlock()
		return
	}
	s.gone = true
	s.goneAt = time.Now()
	grace := n.cfg.ReconnectGrace
	n.record(Event{Kind: EvSever, Peer: s.name})
	n.mu.Unlock()
	_ = c.close()
	if grace > 0 {
		time.AfterFunc(grace+10*time.Millisecond, func() { n.wake(n.kick) })
	}
	n.wake(n.kick)
}

// connectParent dials the parent and says hello: the wire version, the
// partially received transfers it offers to resume, the tasks its subtree
// still holds and the requests it has sent that no task answered. The
// hello-ack settles which partial transfers continue; the new link is then
// installed and the uplink writer sends everything owed on it.
func (n *Node) connectParent() error {
	raw, err := net.Dial("tcp", n.cfg.Parent)
	if err != nil {
		return fmt.Errorf("live: dial parent: %w", err)
	}
	c := newConn(raw, "parent", n.cfg.Faults, n.cfg.WriteTimeout, &n.wireSeq, &n.wireCtr)

	n.mu.Lock()
	resume := make([]ResumePoint, 0, len(n.inflight))
	for id, t := range n.inflight {
		resume = append(resume, ResumePoint{Task: id, Offset: t.got})
	}
	holding := n.holdingLocked()
	unanswered := n.unansweredLocked()
	n.helloEpoch++
	n.mu.Unlock()
	sort.Slice(resume, func(i, j int) bool { return resume[i].Task < resume[j].Task })

	helloWire := c.nextSeq()
	helloSeq := n.record(Event{Kind: EvHello, Peer: "parent", WireSeq: helloWire})
	if err := c.send(&message{Kind: kindHello, Codecs: []uint8{wireVersion}, Name: n.cfg.Name, N: unanswered,
		Resume: resume, Holding: holding, Seq: helloWire, TraceNode: n.cfg.Name, TraceSeq: helloSeq}); err != nil {
		_ = c.close()
		return fmt.Errorf("live: hello: %w", err)
	}
	// A parent that speaks another wire version, or none (its answer does
	// not parse as a frame), fails here, bounded by the handshake timeout.
	ack, err := c.recvTimeout(n.cfg.HandshakeTimeout)
	if err != nil {
		_ = c.close()
		return fmt.Errorf("live: hello ack (wire version %d): %w", wireVersion, err)
	}
	if ack.Kind != kindHelloAck {
		_ = c.close()
		return fmt.Errorf("live: expected hello ack, got frame kind %d", ack.Kind)
	}
	if ack.Name != "" {
		// Written before the conn is published; recorder events on this
		// link can now carry the parent's real name.
		c.peerName = ack.Name
	}
	revived := int64(0)
	if ack.Revived {
		revived = 1
	}
	n.record(Event{Kind: EvHelloAck, Peer: c.label(), Value: revived, WireSeq: ack.Seq,
		CausePeer: ack.TraceNode, CauseSeq: ack.TraceSeq})
	accepted := make(map[uint64]bool, len(ack.Accepted))
	for _, id := range ack.Accepted {
		accepted[id] = true
	}

	n.mu.Lock()
	n.parentName = ack.Name
	// Partial transfers the parent will not resume were reclaimed on its
	// side; drop their assembly state so a fresh stream starts clean. The
	// hello counted each as a buffer being filled, so each now owes the
	// request that asks for a refill.
	for id := range n.inflight {
		if !accepted[id] {
			delete(n.inflight, id)
			n.reqDeficit++
		}
	}
	n.parent = c
	n.mu.Unlock()

	// Wake the uplink writer: the owed requests, then every ledger entry
	// — results computed while partitioned and ones written to the old
	// conn but never acked — go out on the new link, in arrival order.
	n.wake(n.resKick)
	n.superviseConn(c)
	return nil
}

// unansweredLocked is the node's count of requests sent to its parent that
// no task has answered: every buffer that is not holding a task, receiving
// one, or still owed its request. (Tasks requeued from a dead child can
// push the pool past Buffers; the count bottoms out at none.) Callers hold
// n.mu.
func (n *Node) unansweredLocked() int {
	return max(0, n.cfg.Buffers-n.buffer.len()-len(n.inflight)-n.reqDeficit)
}

// holdingLocked enumerates every task ID this node's subtree still
// accounts for: buffered, on the compute port, handed to the send port,
// delivered into a child subtree without a returned result, or computed
// with the result awaiting an ack. The reconnect hello carries the set
// so the parent can requeue outstanding tasks the subtree lost
// (revive-time reconciliation). Partially received transfers are
// conveyed separately as Resume points. Callers hold n.mu.
func (n *Node) holdingLocked() []uint64 {
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

// parentSupervisor owns the uplink: it runs the read loop and, when the
// link dies without a shutdown, re-dials with capped exponential backoff.
// Only exhausting every attempt makes the loss fatal.
func (n *Node) parentSupervisor() {
	for {
		n.mu.Lock()
		c := n.parent
		n.mu.Unlock()
		if c == nil {
			return
		}
		shutdown := n.readParent(c)
		_ = c.close()
		if shutdown {
			// Close waits on this goroutine's WaitGroup entry, so it
			// must run detached; it is idempotent.
			go n.Close()
			return
		}
		if n.isClosed() {
			return
		}
		n.mu.Lock()
		n.parent = nil          // outbound work is owed until the link is back,
		n.upAcks = n.upAcks[:0] // except acks: the reconnect hello's Holding set covers them
		n.record(Event{Kind: EvSever, Peer: c.label()})
		n.mu.Unlock()
		if !n.reconnect() {
			if !n.isClosed() {
				n.fail(fmt.Errorf("live: parent link lost; reconnect failed after %d attempts", n.cfg.ReconnectAttempts))
			}
			return
		}
	}
}

// reconnect re-dials the parent under the backoff schedule; it reports
// whether a new link was established.
func (n *Node) reconnect() bool {
	for attempt := 1; attempt <= n.cfg.ReconnectAttempts; attempt++ {
		if !n.cfg.sleep(backoffDelay(attempt, n.cfg.ReconnectBase, n.cfg.ReconnectCap), n.done) {
			return false // node closed mid-wait
		}
		if err := n.connectParent(); err == nil {
			n.mu.Lock()
			n.stats.Reconnects++
			n.mu.Unlock()
			n.record(Event{Kind: EvReconnect, Peer: n.parentLabel(), Value: int64(attempt)})
			return true
		}
	}
	return false
}

// readParent consumes frames from the current uplink until it fails or
// orders a shutdown; the supervisor decides what happens next.
func (n *Node) readParent(c *conn) (shutdown bool) {
	for {
		m, err := c.recv()
		if err != nil {
			return false
		}
		switch m.Kind {
		case kindChunk:
			t, ok := n.inflightFor(m.Task)
			if !ok {
				continue
			}
			if m.TraceSeq != t.segment || m.TraceNode != t.segmentFrom {
				// First chunk of a new transfer segment (fresh dispatch or
				// a resume after preemption/reconnect on the parent side).
				t.segment, t.segmentFrom = m.TraceSeq, m.TraceNode
				n.record(Event{Kind: EvChunkRecv, Task: m.Task, Peer: c.label(), Off: m.Offset,
					WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			}
			complete, err := t.feed(m)
			if err != nil {
				n.fail(err)
				return false
			}
			if complete {
				recvSeq := n.record(Event{Kind: EvTaskReceived, Task: m.Task, Peer: c.label(),
					Off: t.got, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
				n.mu.Lock()
				// One ack per task, owed before the task can be computed so
				// the uplink writer always puts it ahead of the result. The
				// parent handed the task off when it wrote this chunk and
				// waits on nothing; a resume after a disconnect starts from
				// the offset the hello offers, not from an ack.
				n.upAcks = append(n.upAcks, chunkAck{m.Task, t.got, recvSeq})
				delete(n.inflight, m.Task)
				n.buffer.push(Task{ID: m.Task, Payload: t.payload, App: t.app})
				n.stats.Received++
				n.bumpApp(t.app, func(s *AppStats) { s.Received++ })
				n.mu.Unlock()
				n.wake(n.comp)
				n.wake(n.kick)
				n.wake(n.resKick)
			}
		case kindResultAck:
			n.mu.Lock()
			reaim := n.retireResultLocked(m.Task, m.Origin) && n.cfg.ResultRetry > 0
			n.record(Event{Kind: EvResultAck, Task: m.Task, Origin: m.Origin, Peer: c.label(),
				WireSeq: m.Seq, CausePeer: m.TraceNode, CauseSeq: m.TraceSeq})
			n.mu.Unlock()
			if reaim {
				n.wake(n.resKick) // the retry timer may now rest or re-aim
			}
		case kindShutdown:
			n.record(Event{Kind: EvShutdown, Peer: c.label(), WireSeq: m.Seq})
			return true
		case kindHeartbeat, kindHelloAck:
			// Heartbeats only refresh the proof-of-life clock; a stray
			// hello-ack after the handshake is ignored.
		default:
			// kindHello, kindRequest, kindResult, kindChunkAck, and
			// kindGoodbye flow child→parent, never down the uplink. A frame
			// of a kind this build does not know (a newer peer) lands here
			// too; dropping it keeps the link alive rather than desyncing
			// the stream.
		}
	}
}

func (n *Node) inflightFor(id uint64) (*inTransfer, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, false
	}
	t, ok := n.inflight[id]
	if !ok {
		t = &inTransfer{id: id}
		n.inflight[id] = t
	}
	return t, true
}

// deliverResult hands a result to the local collector (root) or commits
// it to the unacked-result ledger for the uplink writer. Every uplink
// result routes through the ledger — there is no direct send path — so a
// frame lost to a just-severed conn (the old read-parent-then-send
// TOCTOU window), a scripted drop, or a disconnect is always replayed:
// only the parent's ack retires an entry.
func (n *Node) deliverResult(r Result) {
	if n.root {
		n.collectRoot(r)
		return
	}
	n.mu.Lock()
	n.enqueueResultLocked(r)
	n.mu.Unlock()
	n.wake(n.resKick)
}

// collectRoot hands a result to the root's Run loop.
func (n *Node) collectRoot(r Result) {
	n.mu.Lock()
	n.bumpApp(r.App, func(s *AppStats) { s.Collected++ })
	n.mu.Unlock()
	n.record(Event{Kind: EvResultCollect, Task: r.ID, Origin: r.Origin})
	select {
	case n.results <- r:
	case <-n.done:
	}
}

// enqueueResultLocked appends a result to the unacked ledger unless an
// entry with the same task ID + origin is already pending (a duplicate
// from a re-delivered task; it would be deduplicated upstream anyway).
// Callers hold n.mu.
func (n *Node) enqueueResultLocked(r Result) {
	for _, e := range n.unacked {
		if e.res.ID == r.ID && e.res.Origin == r.Origin {
			n.stats.ResultsDeduped++
			n.bumpApp(r.App, func(s *AppStats) { s.Deduped++ })
			return
		}
	}
	n.unacked = append(n.unacked, &resultEntry{res: r})
}

// uplinkWriter is the only steady-state sender toward the parent. Each
// wake-up snapshots, under one n.mu hold, everything owed on the link —
// the final-chunk acks, the owed requests as one frame, then the due
// ledger entries, in that order, so a task's ack still precedes its result
// on the in-order link — then unlocks and writes it all with one
// sendBatch: one write per wake-up, never reached with n.mu held.
//
// The ledger is walked in arrival order, (re)sending every entry not yet
// written to the current parent conn — which after a reconnect replays
// all outstanding results — and, on a live link, retransmitting entries
// unacked past the ResultRetry deadline. Single-sender FIFO means replay
// order always matches arrival order, with no re-append races. Sends are
// pipelined: acks stream back asynchronously and retire entries as they
// arrive; one acked between the snapshot and the write is sent redundantly
// and deduplicated upstream — exactly-once is preserved by the parent's
// dedupe, not by the writer's timing.
//
// A cut batch loses nothing the writer knows unsent: unaccepted requests
// are owed again, unaccepted results stay in the ledger untouched, and a
// lost ack is covered by the reconnect hello's Holding set.
func (n *Node) uplinkWriter() {
	var frames []*message
	var msgs []message
	var acks []chunkAck
	timer := time.NewTimer(time.Hour) // re-aimed before every use
	for {
		n.mu.Lock()
		batch, c, replays := n.dueResultBatch()
		acks, n.upAcks = n.upAcks, acks[:0]
		reqN, reqApp, epoch := 0, n.reqApp, n.helloEpoch
		if c != nil {
			// Sent from here on: the parent may answer the moment the bytes
			// leave, before this goroutine is back under the lock.
			reqN, n.reqDeficit = n.reqDeficit, 0
		}
		idle := c == nil || len(acks)+reqN+len(batch) == 0
		var retryWait time.Duration
		if idle {
			retryWait = n.resultRetryWait()
		}
		n.mu.Unlock()
		if idle {
			var timerC <-chan time.Time
			if retryWait > 0 {
				timer.Reset(retryWait)
				timerC = timer.C
			}
			select {
			case <-n.resKick:
			case <-timerC:
			case <-n.done:
				return
			}
			continue
		}
		if total := len(acks) + 1 + len(batch); cap(msgs) < total {
			msgs = make([]message, 0, total) // sized up front: frames points into it
		}
		msgs, frames = msgs[:0], frames[:0]
		for _, a := range acks {
			msgs = append(msgs, message{Kind: kindChunkAck, Task: a.task, Offset: a.got, Last: true,
				Seq: c.nextSeq(), TraceNode: n.cfg.Name, TraceSeq: a.traceSeq})
		}
		if reqN > 0 {
			wire := c.nextSeq()
			reqSeq := n.record(Event{Kind: EvRequestSent, Peer: c.label(), Value: int64(reqN), WireSeq: wire})
			msgs = append(msgs, message{Kind: kindRequest, N: reqN, App: reqApp,
				Seq: wire, TraceNode: n.cfg.Name, TraceSeq: reqSeq})
		}
		firstResult := len(msgs)
		for _, e := range batch {
			kind := EvResultSend
			if e.sentOn != nil {
				kind = EvResultReplay
			}
			wire := c.nextSeq()
			sendSeq := n.record(Event{Kind: kind, Task: e.res.ID, Origin: e.res.Origin,
				Peer: c.label(), WireSeq: wire})
			msgs = append(msgs, message{Kind: kindResult, Task: e.res.ID, Output: e.res.Output, Origin: e.res.Origin,
				App: e.res.App, Seq: wire, TraceNode: n.cfg.Name, TraceSeq: sendSeq})
		}
		for i := range msgs {
			frames = append(frames, &msgs[i])
		}
		accepted, err := c.sendBatch(frames)
		now := time.Now()
		n.mu.Lock()
		if accepted >= firstResult {
			n.stats.Requests += int64(reqN)
		} else if epoch == n.helloEpoch {
			n.reqDeficit += reqN // cut before the request: owed again
		}
		// (A hello built meanwhile told the parent they were sent, and the
		// parent registered them on its word: they are not owed twice.)
		for _, e := range batch[:max(accepted-firstResult, 0)] {
			e.sentOn = c
			e.sentAt = now
		}
		n.stats.ResultsReplayed += int64(replays)
		n.mu.Unlock()
		if err != nil && !n.isClosed() {
			// Dead uplink: the supervisor will reconnect and wake us.
			select {
			case <-n.resKick:
			case <-n.done:
				return
			}
		}
		if n.isClosed() {
			return
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
// writer's reusable scratch. Callers hold n.mu.
func (n *Node) dueResultBatch() (batch []*resultEntry, c *conn, replays int) {
	c = n.parent
	if c == nil {
		return nil, nil, 0
	}
	batch = n.due[:0]
	retry := n.cfg.ResultRetry
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

// resultRetryWait reports how long the writer may sleep before the
// earliest-sent unacked entry hits its retransmit deadline; 0 means no
// timer is needed (retry disabled, link down, or ledger empty). Callers
// hold n.mu.
func (n *Node) resultRetryWait() time.Duration {
	retry := n.cfg.ResultRetry
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

// retireResultLocked removes the ledger entry matching an ack and reports
// whether it was the first sent entry in ledger order — the one the retry
// timer is aimed at unless a retransmit re-stamped it. Callers hold n.mu.
func (n *Node) retireResultLocked(task uint64, origin string) (oldestSent bool) {
	oldestSent = true
	for i, e := range n.unacked {
		if e.res.ID == task && e.res.Origin == origin {
			n.unacked = append(n.unacked[:i], n.unacked[i+1:]...)
			n.stats.ResultAcks++
			return oldestSent && !e.sentAt.IsZero()
		}
		if !e.sentAt.IsZero() {
			oldestSent = false
		}
	}
	return false
}

// oweRequestLocked fires the request-on-free rule: one more request is
// owed to the parent, and the uplink writer sends what is owed, as one
// frame, whenever there is a parent. app tags the request with the
// application whose freed buffer fired it — informational, exactly like
// the engine: requests grant anonymous capacity, the parent's own
// weighted round-robin decides whose task fills it. Callers hold n.mu.
func (n *Node) oweRequestLocked(app string) {
	n.reqDeficit++
	n.reqApp = app
	n.wake(n.resKick)
}

// takeTask pops one buffered task, firing the request-on-free rule.
func (n *Node) takeTask() (Task, bool) {
	n.mu.Lock()
	if n.buffer.len() == 0 {
		n.mu.Unlock()
		return Task{}, false
	}
	t := n.buffer.pop()
	n.computing[t.ID] = true // accounted until the result enters the ledger
	if !n.root {
		n.oweRequestLocked(t.App)
	}
	n.mu.Unlock()
	return t, true
}

// computeLoop is the node's compute port: one task at a time.
func (n *Node) computeLoop() {
	for {
		t, ok := n.takeTask()
		if !ok {
			select {
			case <-n.comp:
				continue
			case <-n.done:
				return
			}
		}
		n.record(Event{Kind: EvComputeStart, Task: t.ID})
		started := time.Now()
		out, err := n.cfg.Compute(t)
		if err != nil {
			n.fail(fmt.Errorf("live: compute task %d: %w", t.ID, err))
			return
		}
		n.record(Event{Kind: EvComputeDone, Task: t.ID, Origin: n.cfg.Name,
			Value: time.Since(started).Nanoseconds()})
		n.mu.Lock()
		n.stats.Computed++
		n.bumpApp(t.App, func(s *AppStats) { s.Computed++ })
		n.mu.Unlock()
		n.deliverResult(Result{ID: t.ID, Output: out, Origin: n.cfg.Name, App: t.App})
		// Cleared only after deliverResult committed the result to the
		// ledger, so a reconnect hello always accounts for the task.
		n.mu.Lock()
		delete(n.computing, t.ID)
		n.mu.Unlock()
		if n.isClosed() {
			return
		}
	}
}
