package live

// This file is the live runtime's flight recorder: a fixed-capacity ring
// buffer of structured events covering the complete journey of every task
// through the overlay — request, chunked transfer, compute, result
// delivery — plus every recovery transition (heartbeat miss, sever,
// reconnect, requeue, revive reconciliation). It is the event-level
// counterpart of the aggregate Stats counters: when a deployment
// misbehaves, counters say how many, the recorder says which task, on
// which link, in what order.
//
// Every event but a refused handshake is recorded by the node's owner
// goroutine in the step that makes the state change it describes, so the
// per-node event order is the owner's decision order — cmd/bwtrace relies
// on this to re-verify scheduling decisions from merged dumps. Cross-node
// causality is carried on the wire: every frame is stamped with the
// sequence number of the recorder event on the sender that caused it (the
// frame header, see codec.go), and the link names the sender, so a receive
// event on one node names the send event on its peer (Peer and CauseSeq).

import (
	"slices"
	"sync"
	"time"
)

// EventKind discriminates flight-recorder events.
type EventKind uint8

const (
	// EvHello is a reconnect/join handshake hello: recorded by the child
	// when it sends one and by the parent when it receives one.
	EvHello EventKind = iota + 1
	// EvHelloAck is the handshake answer; Value is 1 when the parent
	// revived the child's previous session.
	EvHelloAck
	// EvRevive marks a parent reviving a dead child's session within the
	// reconnect grace window.
	EvRevive
	// EvGoodbye is a deliberate departure announcement.
	EvGoodbye
	// EvShutdown is a wind-down order received from the parent.
	EvShutdown
	// EvRequestSent is a task request sent up the tree; Value is the
	// number of tasks requested.
	EvRequestSent
	// EvRequestServed is a child's task request registered by its parent;
	// Value is the number of tasks requested. One with no CauseSeq (from
	// a child whose recorder is on) is what a hello's count of unanswered
	// requests added to the session's: requests the dead link swallowed,
	// or consumed by transfers that returned to the pool undelivered.
	EvRequestServed
	// EvChunkSend is the dispatch of a fresh transfer to a child — the
	// bandwidth-centric scheduling decision. Value is the chosen child's
	// measured link estimate in nanoseconds at decision time.
	EvChunkSend
	// EvChunkResume is a shelved or reconnect-interrupted transfer
	// resuming; Off is the byte offset it resumes from.
	EvChunkResume
	// EvChunkInterrupt is the send port preempting an unfinished transfer
	// for a higher-priority child; Off is the interrupted offset.
	EvChunkInterrupt
	// EvChunkRecv is the first chunk of a transfer segment arriving at
	// the receiver; Off is the segment's starting offset. The sender's
	// final port turn is always a segment of its own, caused by the
	// hand-off.
	EvChunkRecv
	// EvChunkAck is never recorded: it was wire v1's chunk ack arriving at
	// the parent, a frame v2 retired. The kind keeps its value and name so
	// older dumps still load.
	EvChunkAck
	// EvTaskReceived is a complete task payload assembled at the receiver,
	// recorded on its last chunk; its cause is the sender's hand-off.
	EvTaskReceived
	// EvComputeStart is a task entering the local compute port.
	EvComputeStart
	// EvComputeDone is a local computation finishing; Value is the
	// elapsed nanoseconds.
	EvComputeDone
	// EvResultSend is a result written to the uplink for the first time.
	EvResultSend
	// EvResultReplay is an unacked result retransmitted (reconnect replay
	// or retry timer).
	EvResultReplay
	// EvResultRecv is a result arriving from a child.
	EvResultRecv
	// EvResultDedupe is a duplicate result suppressed before relay or
	// collection.
	EvResultDedupe
	// EvResultAck is a result ack arriving from the parent, retiring the
	// matching unacked-ledger entry: one per key of the frame, each naming
	// as its cause the parent's receipt of the frame's latest result.
	EvResultAck
	// EvResultCollect is the root collecting a result for the Run in flight.
	EvResultCollect
	// EvHeartbeatMiss is a supervision interval that passed with a silent
	// link; Value is the consecutive miss count.
	EvHeartbeatMiss
	// EvSever is a link declared dead — or one refused at the handshake,
	// with the remote address for its Peer.
	EvSever
	// EvReconnect is a successful re-dial of a lost parent link; Value is
	// the attempt number that succeeded.
	EvReconnect
	// EvRequeue is a task reclaimed from a dead or reconciled subtree and
	// put back in the buffer for re-dispatch.
	EvRequeue
	// EvHandoff is the send port handing a task off to a child: recorded
	// when the port turn that builds the transfer's final chunk is decided,
	// in the owner step that frees the port and before the chunk is
	// written, so it precedes everything the child does with the task. Off
	// is the offset the final turn starts from. (Appended after EvRequeue
	// so existing kinds keep their values.)
	EvHandoff
)

var eventKindNames = [...]string{
	EvHello:          "hello",
	EvHelloAck:       "hello-ack",
	EvRevive:         "revive",
	EvGoodbye:        "goodbye",
	EvShutdown:       "shutdown",
	EvRequestSent:    "request-sent",
	EvRequestServed:  "request-served",
	EvChunkSend:      "chunk-send",
	EvChunkResume:    "chunk-resume",
	EvChunkInterrupt: "chunk-interrupt",
	EvChunkRecv:      "chunk-recv",
	EvChunkAck:       "chunk-ack",
	EvTaskReceived:   "task-received",
	EvComputeStart:   "compute-start",
	EvComputeDone:    "compute-done",
	EvResultSend:     "result-send",
	EvResultReplay:   "result-replay",
	EvResultRecv:     "result-recv",
	EvResultDedupe:   "result-dedupe",
	EvResultAck:      "result-ack",
	EvResultCollect:  "result-collect",
	EvHeartbeatMiss:  "heartbeat-miss",
	EvSever:          "sever",
	EvReconnect:      "reconnect",
	EvRequeue:        "requeue",
	EvHandoff:        "handoff",
}

// String returns the event kind's stable name (the names are the JSON
// encoding served by /debug/events and parsed by cmd/bwtrace).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind as its stable name in JSON dumps.
func (k EventKind) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// UnmarshalText parses a kind name; unknown names decode to 0 rather
// than erroring, so dumps from newer nodes still load.
func (k *EventKind) UnmarshalText(b []byte) error {
	*k = EventKind(max(slices.Index(eventKindNames[:], string(b)), 0))
	return nil
}

// wireTraced maps every wire frame kind to the recorder event kinds that
// trace it, so no frame type can cross a link unobserved. The recorder
// exhaustiveness test cross-checks this map against the kind* constants
// of wire.go; adding a wire kind without extending it is a test failure.
var wireTraced = map[msgKind][]EventKind{
	kindHello:     {EvHello},
	kindRequest:   {EvRequestSent, EvRequestServed},
	kindChunk:     {EvChunkSend, EvChunkResume, EvHandoff, EvChunkRecv, EvTaskReceived},
	kindResult:    {EvResultSend, EvResultReplay, EvResultRecv},
	kindShutdown:  {EvShutdown},
	kindHeartbeat: {EvHeartbeatMiss},
	kindHelloAck:  {EvHelloAck, EvRevive},
	kindGoodbye:   {EvGoodbye},
	kindResultAck: {EvResultAck},
}

// Event is one flight-recorder entry. Events are immutable once recorded.
type Event struct {
	// Seq is the node-local event sequence number, dense from 1. Peers
	// reference it through the wire's trace context (CauseSeq).
	Seq uint64 `json:"seq"`
	// At is a monotonic timestamp: nanoseconds since the node's recorder
	// epoch. Dumps from different nodes are aligned per-link by
	// cmd/bwtrace using matched send/receive event pairs.
	At int64 `json:"at"`
	// Kind discriminates the event.
	Kind EventKind `json:"kind"`
	// Task is the task ID the event concerns, when any.
	Task uint64 `json:"task,omitempty"`
	// Origin is the computing node's name for result-path events.
	Origin string `json:"origin,omitempty"`
	// Peer names the remote end of the link the event concerns.
	Peer string `json:"peer,omitempty"`
	// CauseSeq names the causal event on Peer for events triggered by a
	// received frame: the Seq of the sender-side event carried in the
	// frame's trace context.
	CauseSeq uint64 `json:"causeSeq,omitempty"`
	// Off is a byte offset for transfer events.
	Off int `json:"off,omitempty"`
	// Value carries kind-specific data; see the kind constants.
	Value int64 `json:"value,omitempty"`
}

// TraceDump is the serializable form of a node's flight recorder, served
// by /debug/events and merged across nodes by cmd/bwtrace.
type TraceDump struct {
	Node string `json:"node"`
	Root bool   `json:"root"`
	// EpochUnixNano is the recorder epoch as wall-clock time — a coarse
	// fallback for aligning nodes that share no link.
	EpochUnixNano int64 `json:"epochUnixNano"`
	// Dropped counts events evicted by ring wrap-around; the retained
	// window starts Dropped events into the node's history.
	Dropped int64   `json:"dropped"`
	Events  []Event `json:"events"`
}

// flightRecorder is the fixed-capacity event ring. Writers never block
// and entries are never mutated after being written: overflow overwrites
// the oldest event and counts it as dropped, so the recorder always
// holds the most recent window of the node's history.
type flightRecorder struct {
	epoch time.Time

	mu   sync.Mutex
	buf  []Event // ring storage; index seq-1 mod cap
	next uint64  // total events ever recorded; the next event gets Seq next+1
}

func newFlightRecorder(capacity int) *flightRecorder {
	return &flightRecorder{epoch: time.Now(), buf: make([]Event, 0, capacity)}
}

// add assigns the event its sequence number and monotonic timestamp,
// appends it, and returns the sequence number for wire stamping.
func (r *flightRecorder) add(e Event) uint64 {
	at := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.next++
	e.Seq = r.next
	e.At = at
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[(e.Seq-1)%uint64(cap(r.buf))] = e
	}
	r.mu.Unlock()
	return e.Seq
}

// dropped reports how many events were evicted by wrap-around.
func (r *flightRecorder) dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedLocked()
}

func (r *flightRecorder) droppedLocked() int64 {
	if c := uint64(cap(r.buf)); r.next > c {
		return int64(r.next - c)
	}
	return 0
}

// snapshot returns the retained events in sequence order plus the evicted
// count.
func (r *flightRecorder) snapshot() ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs, _ := r.sinceLocked(0)
	return evs, r.droppedLocked()
}

// since returns the retained events with Seq > after, in order, and the
// sequence number the next call should resume from. Events evicted before
// they could be read are skipped (the caller observes the gap in Seq).
func (r *flightRecorder) since(after uint64) ([]Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinceLocked(after)
}

func (r *flightRecorder) sinceLocked(after uint64) ([]Event, uint64) {
	after = max(after, uint64(r.droppedLocked()))
	out := make([]Event, 0, r.next-min(after, r.next))
	for seq := after + 1; seq <= r.next; seq++ {
		out = append(out, r.buf[(seq-1)%uint64(cap(r.buf))])
	}
	return out, r.next
}

// record appends one event to the node's flight recorder, returning its
// sequence number for wire stamping; a node with the recorder disabled
// records nothing.
func (n *Node) record(e Event) uint64 {
	if n.rec == nil {
		return 0
	}
	return n.rec.add(e)
}

// Events returns a snapshot of the flight recorder's retained events in
// order; nil when the recorder is disabled.
func (n *Node) Events() []Event { return n.TraceDump().Events }

// TraceDump returns the node's flight-recorder dump — the document
// /debug/events serves and cmd/bwtrace merges. The Events slice is nil
// when the recorder is disabled.
func (n *Node) TraceDump() TraceDump {
	d := TraceDump{Node: n.cfg.name, Root: n.root}
	if n.rec == nil {
		return d
	}
	d.EpochUnixNano = n.rec.epoch.UnixNano()
	d.Events, d.Dropped = n.rec.snapshot()
	return d
}
