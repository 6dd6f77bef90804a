package live

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// msgKind discriminates wire messages.
type msgKind uint8

const (
	// kindHello introduces a child to its parent (child → parent). On a
	// reconnect it carries Resume points for partially received transfers.
	kindHello msgKind = iota + 1
	// kindRequest asks the parent for N more tasks (child → parent).
	kindRequest
	// kindChunk carries one slice of a task's payload (parent → child).
	// Interruptible communication interleaves chunks of different
	// children's transfers at the sending port; a single child's stream
	// is always in order.
	kindChunk
	// kindResult returns a completed task's output, relayed hop by hop to
	// the root (child → parent).
	kindResult
	// kindShutdown tells the subtree to wind down (parent → child).
	kindShutdown
	// kindHeartbeat is a liveness probe sent on an otherwise idle link in
	// both directions; any inbound frame counts as proof of life.
	kindHeartbeat
	// kindChunkAck confirms receipt of a task's final chunk (child →
	// parent), one per task. Nothing waits on it: the parent hands the
	// task off when it writes that chunk, and an interrupted transfer
	// resumes from the offset the reconnect hello offers. It is proof of
	// receipt for a later revive and the recorder's end of the transfer.
	// (A child that predates this acks every chunk; the extra acks are
	// ignored.)
	kindChunkAck
	// kindHelloAck answers a hello (parent → child): whether the parent
	// revived the child's previous session and which partial transfers it
	// agreed to resume.
	kindHelloAck
	// kindGoodbye announces a deliberate departure (child → parent), so
	// the parent reclaims the subtree's tasks immediately instead of
	// waiting out the reconnect grace window.
	kindGoodbye
	// kindResultAck confirms receipt of a result (parent → child), keyed
	// by task ID + origin. The child retires the matching entry of its
	// unacked-result ledger; an unacked result is replayed after a
	// reconnect and retransmitted on a live-but-lossy link, so the
	// result path is at-least-once in transport and — because the
	// parent deduplicates before relay — exactly-once in collection.
	kindResultAck
)

// ResumePoint names a partially received transfer offered for resumption
// in a reconnecting child's hello: the child holds the first Offset bytes
// of the task's payload.
type ResumePoint struct {
	Task   uint64
	Offset int
}

// message is the single wire envelope. One gob stream per direction per
// connection.
type message struct {
	Kind msgKind

	// Hello.
	Name   string
	Resume []ResumePoint
	// Holding lists every task ID the reconnecting child's subtree still
	// accounts for — buffered, computing, forwarded onward, or computed
	// with the result awaiting an ack. The parent requeues any
	// outstanding task the hello does not cover (revive-time
	// reconciliation); partially received transfers are conveyed
	// separately as Resume points.
	Holding []uint64

	// HelloAck.
	Revived  bool
	Accepted []uint64

	// Request.
	N int

	// Chunk and ChunkAck. A ChunkAck's Offset is the contiguous byte
	// count the child holds; Last marks the final ack of a transfer, the
	// only one a child sends.
	Task   uint64
	Size   int // total payload size, set on every chunk
	Offset int
	Data   []byte
	Last   bool

	// Result. A ResultAck echoes the result's Task and Origin, matching
	// the sender's ledger key.
	Output []byte
	Origin string // name of the node that computed the task

	// Trace context (appended fields — kind values are unchanged, and gob
	// ignores fields one side does not declare, so old-format frames
	// decode with zero trace context and old peers skip these).
	//
	// Seq is a node-unique wire sequence number stamped on every frame
	// the node sends. TraceNode and TraceSeq name the flight-recorder
	// event on the sending node that caused this frame, so a receive
	// event on one node links to the causal send event on its peer
	// (CausePeer/CauseSeq in the recorder's Event).
	Seq       uint64
	TraceNode string
	TraceSeq  uint64

	// Application tag (appended field, back-compatible both directions
	// exactly like the trace context above: old-format frames decode with
	// an empty App, old peers skip the field). Chunks carry the task's
	// application so the receiving subtree preserves tenant attribution;
	// results echo it back so every hop keeps per-tenant counters; a
	// request carries the application whose freed buffer fired it
	// (informational — requests remain anonymous capacity, exactly as in
	// the engine).
	App string

	// Codecs (appended field, back-compatible both directions like App
	// and the trace context) carries codec-version negotiation: a hello
	// lists every version beyond gob the child speaks, the hello-ack
	// echoes the parent's pick. Peers that predate versioning skip the
	// field and keep their gob streams. See Codec.
	Codecs []uint8
}

// conn wraps a network connection with gob codecs and a write lock so
// multiple goroutines (request sender, result relay, send port) can share
// the outbound stream safely. It also carries the link's supervision
// state: the receive timestamp heartbeat monitors watch, the per-message
// write deadline, and the fault-injection plan consulted on every frame.
type conn struct {
	raw net.Conn
	w   io.Writer // raw wrapped with the byte counter; all writes go through it
	enc *gob.Encoder
	dec *gob.Decoder
	// br is the shared inbound buffer: the gob decoder reads through it
	// (bufio.Reader is an io.ByteReader, so gob never double-buffers and
	// never reads past a message boundary), which is what makes switching
	// to binary framing at a frame boundary safe — the binary reader
	// picks up exactly where the handshake's gob stream stopped.
	br *bufio.Reader
	// codec is the negotiated wire codec. It is written once during the
	// handshake, before the conn is published to other goroutines, and
	// stays fixed for the connection's lifetime (a reconnect negotiates
	// afresh on a new conn).
	codec Codec
	wmu   sync.Mutex
	// Write-side state, guarded by wmu: the reusable gob envelope (so
	// callers' messages do not escape to the heap) and the binary encode
	// buffer, which between writes holds the frames queue left pending
	// (queued counts them).
	scratch message
	wbuf    []byte
	queued  int
	// Read-side scratch, owned by the conn's single reader goroutine.
	rbuf   []byte
	rmsg   message
	intern interner
	// peer is the fault-plan link selector: the remote node's name for
	// child links, the literal "parent" on an uplink. peerName is the
	// remote node's actual name for flight-recorder events; it is written
	// once during the handshake, before the conn is published to other
	// goroutines, and falls back to peer while unknown.
	peer     string
	peerName string
	faults   *FaultPlan
	writeTO  time.Duration
	// wireSeq stamps outbound frames with a node-unique sequence number;
	// it points at the owning node's counter so numbering survives
	// reconnects (one conn is replaced, the numbering is not).
	wireSeq *atomic.Uint64
	// ctr aggregates frame/byte counters into the owning node's stats;
	// never nil for conns built by newConn.
	ctr      *wireCounters
	lastRecv atomic.Int64 // unix nanos of the last inbound frame
	stop     chan struct{}
	stopOnce sync.Once
}

// wireCounters aggregates data-plane volume across a node's conns (all
// links, both directions, surviving reconnects).
type wireCounters struct {
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	writes     atomic.Int64 // Write calls, i.e. syscalls; read by tests only
}

// countingWriter and countingReader meter raw link bytes (gob and binary
// alike) into the owning node's wire counters.
type countingWriter struct {
	w   io.Writer
	ctr *wireCounters
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.ctr.bytesSent.Add(int64(n))
	cw.ctr.writes.Add(1)
	return n, err
}

type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

func newConn(raw net.Conn, peer string, faults *FaultPlan, writeTO time.Duration, wireSeq *atomic.Uint64, ctr *wireCounters) *conn {
	if ctr == nil {
		ctr = &wireCounters{}
	}
	w := &countingWriter{w: raw, ctr: ctr}
	br := bufio.NewReaderSize(&countingReader{r: raw, n: &ctr.bytesRecv}, 32<<10)
	c := &conn{
		raw:     raw,
		w:       w,
		enc:     gob.NewEncoder(w),
		dec:     gob.NewDecoder(br),
		br:      br,
		peer:    peer,
		faults:  faults,
		writeTO: writeTO,
		wireSeq: wireSeq,
		ctr:     ctr,
		stop:    make(chan struct{}),
	}
	c.lastRecv.Store(time.Now().UnixNano())
	return c
}

// label is the conn's display name for flight-recorder events.
func (c *conn) label() string {
	if c.peerName != "" {
		return c.peerName
	}
	return c.peer
}

// nextSeq pre-assigns a wire sequence number so a caller can record the
// frame's flight-recorder event before handing it to send.
func (c *conn) nextSeq() uint64 {
	return c.wireSeq.Add(1)
}

// errFaultSevered reports a connection cut by the fault-injection plan; it
// surfaces through the normal link-failure path so recovery is exercised
// exactly as it would be by a real network partition.
var errFaultSevered = fmt.Errorf("live: connection severed by fault plan")

// send writes one message — and, in the same write, whatever queue left
// pending — serialized with the connection's write lock and bounded by the
// per-message write deadline.
func (c *conn) send(m *message) error {
	return c.sendAs(m, c.codec, true)
}

// queue encodes a frame behind the conn's pending bytes without writing
// it: it leaves with the next send, sendBatch or flush, and the fault plan
// is consulted for it here, exactly as send would. It does no I/O and
// holds only wmu. A gob conn keeps one frame per write: there queue sends.
func (c *conn) queue(m *message) error {
	return c.sendAs(m, c.codec, c.codec != CodecBinary)
}

// flush writes the frames queue left pending, if any. Like send and
// sendBatch it is never reached with a node's mu held.
func (c *conn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writePendingLocked()
}

// sendHandshake writes a hello or hello-ack. Handshake frames are always
// gob — the codec a connection will speak is decided by this exchange,
// so the exchange itself stays in the floor format every peer speaks.
func (c *conn) sendHandshake(m *message) error {
	return c.sendAs(m, CodecGob, true)
}

func (c *conn) sendAs(m *message, codec Codec, write bool) error {
	if m.Seq == 0 {
		m.Seq = c.wireSeq.Add(1)
	}
	if c.faults != nil {
		switch op, d := c.faults.decide(FaultSend, c.peer, FrameKind(m.Kind)); op {
		case FaultDrop:
			return nil // silently lost in the "network"
		case FaultDelay:
			time.Sleep(d)
		case FaultSever:
			_ = c.close()
			return errFaultSevered
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(m, codec, write)
}

// writeLocked encodes one frame and, when write is set, writes it with
// everything pending; callers hold wmu. wmu exists solely to serialize
// writes: it guards no other state, and the stall lockdiscipline fears is
// capped by the write deadline.
func (c *conn) writeLocked(m *message, codec Codec, write bool) error {
	if codec == CodecBinary {
		buf, err := appendFrame(c.wbuf, m)
		if err != nil {
			return err // buf is c.wbuf, pending frames intact
		}
		c.wbuf = buf
		c.queued++
		if !write {
			return nil
		}
		return c.writePendingLocked()
	}
	if c.writeTO > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.writeTO))
	}
	// Copy into the per-conn scratch envelope so the caller's message —
	// typically a stack-allocated literal — does not escape through the
	// encoder's interface argument.
	c.scratch = *m
	if err := c.enc.Encode(&c.scratch); err != nil {
		return err
	}
	c.ctr.framesSent.Add(1)
	return nil
}

// writePendingLocked writes the encode buffer — every frame queued or
// batched since the last write — in one write, and counts the frames as
// sent; callers hold wmu. After an error the link is dead and the bytes
// are dropped with it.
func (c *conn) writePendingLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if c.writeTO > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.writeTO))
	}
	_, err := c.w.Write(c.wbuf)
	if err == nil {
		c.ctr.framesSent.Add(int64(c.queued))
	}
	c.wbuf, c.queued = c.wbuf[:0], 0
	return err
}

// sendBatch writes the frames back to back — on a binary conn in one
// buffer with whatever queue left pending, one syscall — and reports how
// many leading frames the "network" accepted (written or scripted as
// drops) before any error. On a write error the count is 0: none of the
// batch may be assumed delivered, and the link-failure path takes over. A
// scripted sever cuts the batch at the severed frame, exactly where
// sequential sends would have stopped.
func (c *conn) sendBatch(ms []*message) (int, error) {
	if c.codec != CodecBinary || len(ms) == 1 {
		for i, m := range ms {
			if err := c.send(m); err != nil {
				return i, err
			}
		}
		return len(ms), nil
	}
	accepted := 0
	severed := false
	keep := ms[:0] // compacted in place; only writes behind the read index
	for i := 0; i < len(ms); i++ {
		m := ms[i]
		if m.Seq == 0 {
			m.Seq = c.wireSeq.Add(1)
		}
		if c.faults != nil {
			op, d := c.faults.decide(FaultSend, c.peer, FrameKind(m.Kind))
			if op == FaultDrop {
				accepted = i + 1
				continue
			}
			if op == FaultDelay {
				time.Sleep(d)
			}
			if op == FaultSever {
				severed = true
				break
			}
		}
		keep = append(keep, m)
		accepted = i + 1
	}
	var werr error
	if len(keep) > 0 {
		c.wmu.Lock()
		pending, queued := len(c.wbuf), c.queued
		for _, m := range keep {
			if werr = c.writeLocked(m, CodecBinary, false); werr != nil {
				c.wbuf, c.queued = c.wbuf[:pending], queued // unencodable batch: none of it leaves
				break
			}
		}
		if werr == nil {
			werr = c.writePendingLocked()
		}
		c.wmu.Unlock()
	}
	if severed {
		_ = c.close()
		if werr == nil {
			werr = errFaultSevered
		}
		return accepted, werr
	}
	if werr != nil {
		return 0, werr
	}
	return accepted, nil
}

// recv reads the next message, stamping the link's proof-of-life clock.
// On a binary conn the returned message is the conn's reusable decode
// slot: it is valid until the next recv, and its Data field aliases the
// reusable read buffer (consumers copy before the next read; Output is
// already copied by the decoder because results outlive the buffer).
func (c *conn) recv() (*message, error) {
	for {
		var m *message
		if c.codec == CodecBinary {
			body, err := readFrame(c.br, c.rbuf)
			c.rbuf = body[:cap(body)]
			if err != nil {
				return nil, err
			}
			if err := decodeFrame(body, &c.rmsg, &c.intern); err != nil {
				return nil, err
			}
			c.ctr.framesRecv.Add(1)
			m = &c.rmsg
		} else {
			m = new(message)
			if err := c.dec.Decode(m); err != nil {
				return nil, err
			}
			c.ctr.framesRecv.Add(1)
		}
		c.lastRecv.Store(time.Now().UnixNano())
		if c.faults != nil {
			switch op, d := c.faults.decide(FaultRecv, c.peer, FrameKind(m.Kind)); op {
			case FaultDrop:
				continue // lost before delivery
			case FaultDelay:
				time.Sleep(d)
			case FaultSever:
				_ = c.close()
				return nil, errFaultSevered
			}
		}
		return m, nil
	}
}

// recvTimeout reads one message under a read deadline (handshakes only:
// the steady-state read loop relies on heartbeat supervision instead).
func (c *conn) recvTimeout(d time.Duration) (*message, error) {
	if d > 0 {
		_ = c.raw.SetReadDeadline(time.Now().Add(d))
		defer c.raw.SetReadDeadline(time.Time{})
	}
	return c.recv()
}

// sinceRecv reports how long the link has been silent inbound.
func (c *conn) sinceRecv() time.Duration {
	return time.Duration(time.Now().UnixNano() - c.lastRecv.Load())
}

// close shuts the connection down and releases its supervisor.
func (c *conn) close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	return c.raw.Close()
}

// inTransfer assembles a task arriving in chunks.
type inTransfer struct {
	id      uint64
	payload []byte
	got     int
	// app is the task's application tag, carried on every chunk (empty
	// when the sender predates tagging or the task is untagged).
	app string
	// segment/segmentFrom track the trace context of the last chunk, so
	// the flight recorder logs one receive event per transfer segment
	// (the first chunk after each dispatch or resume on the sender).
	segment     uint64
	segmentFrom string
}

// feed applies one chunk and reports whether the task is complete.
func (t *inTransfer) feed(m *message) (bool, error) {
	if t.payload == nil {
		t.payload = make([]byte, m.Size)
	}
	if m.App != "" {
		t.app = m.App
	}
	if m.Offset+len(m.Data) > len(t.payload) {
		return false, fmt.Errorf("live: chunk overflows task %d: offset %d + %d > %d", m.Task, m.Offset, len(m.Data), len(t.payload))
	}
	copy(t.payload[m.Offset:], m.Data)
	t.got += len(m.Data)
	if m.Last {
		if t.got != len(t.payload) {
			return false, fmt.Errorf("live: task %d incomplete: %d of %d bytes", m.Task, t.got, len(t.payload))
		}
		return true, nil
	}
	return false, nil
}

// ewma tracks an exponentially weighted moving average of duration
// samples; the send port uses it as the measured per-chunk communication
// time of each child — the locally observable quantity bandwidth-centric
// priorities are built on.
type ewma struct {
	mu    sync.Mutex
	value float64 // seconds
	seen  bool
}

const ewmaAlpha = 0.25

func (e *ewma) observe(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := d.Seconds()
	if !e.seen {
		e.value = s
		e.seen = true
		return
	}
	e.value = ewmaAlpha*s + (1-ewmaAlpha)*e.value
}

// estimate returns the current average in seconds; unmeasured links
// report 0, so fresh children are probed at top priority.
func (e *ewma) estimate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}
