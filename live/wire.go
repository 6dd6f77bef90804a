package live

import (
	"bufio"
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
	// kindHello introduces a child to its parent (child → parent) and is
	// the first frame on every connection. It names the wire version the
	// child speaks and carries the child's own account of the link: the
	// requests it has sent that no task has answered and, on a reconnect,
	// Resume points for partially received transfers.
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
	// kindHelloAck answers a hello (parent → child): the parent's wire
	// version, whether it revived the child's previous session and
	// which partial transfers it agreed to resume. (Kind 7, wire v1's chunk
	// ack, is retired; its number is not reused.)
	kindHelloAck msgKind = iota + 2
	// kindGoodbye announces a deliberate departure (child → parent), so
	// the parent reclaims the subtree's tasks immediately instead of
	// waiting out the reconnect grace window.
	kindGoodbye
	// kindResultAck confirms receipt of results (parent → child): one
	// frame per send-port turn lists every (task ID, origin) received
	// since the last. The child retires the matching entries of its
	// unacked-result ledger; an unacked result is replayed after a
	// reconnect and retransmitted on a live-but-lossy link, so the
	// result path is at-least-once in transport and — because the
	// parent deduplicates before relay — exactly-once in collection.
	kindResultAck
)

// resultKey names a result-ledger entry: the task ID and the node that
// computed it.
type resultKey struct {
	Task   uint64
	Origin string
}

// resumePoint names a partially received transfer offered for resumption
// in a reconnecting child's hello: the child holds the first Offset bytes
// of the task's payload.
type resumePoint struct {
	Task   uint64
	Offset int
}

// message is the single wire envelope; codec.go gives each kind's
// encoding. It carries only what the receiver cannot know: not the sender
// (the link names it), not the wire version (the codec writes and checks
// it on the handshake kinds), not whether a chunk is a transfer's last
// (Offset+len(Data) == Size says so).
type message struct {
	Kind msgKind

	// Hello.
	Name   string
	Resume []resumePoint
	// Holding lists, in ascending order, every task ID the reconnecting
	// child's subtree still accounts for — buffered, computing, forwarded
	// onward, or computed with the result awaiting an ack. The parent requeues any
	// outstanding task the hello does not cover (revive-time
	// reconciliation); partially received transfers are conveyed
	// separately as Resume points.
	Holding []uint64

	// HelloAck.
	Revived  bool
	Accepted []uint64

	// Request: the tasks asked for. Hello: the child's count of requests
	// sent and not yet answered by a task; the parent registers exactly
	// that many, whatever it had read or dispatched on the connection that
	// died.
	N int

	// Chunk (and Result's Task).
	Task   uint64
	Size   int // total payload size, set on every chunk
	Offset int
	Data   []byte

	// Result; a ResultAck lists the ledger keys it retires.
	Output []byte
	Origin string // name of the node that computed the task
	Acks   []resultKey

	// Trace context: TraceSeq is the Seq of the flight-recorder event on
	// the sending node that caused this frame, so a receive event on one
	// node names the causal send event on its peer (the recorder Event's
	// Peer and CauseSeq).
	TraceSeq uint64
}

// conn wraps a network connection with the frame codec and a write lock
// so several goroutines (the send port or uplink writer, the heartbeat,
// the accept loop's hello-ack, Close's farewell) can share the outbound
// stream safely. It also carries the link's supervision state: the receive
// timestamp heartbeat monitors watch, the per-message write deadline, and
// the fault-injection plan consulted on every frame.
type conn struct {
	raw net.Conn
	w   io.Writer     // raw wrapped with the byte counter; all writes go through it
	br  *bufio.Reader // inbound buffer, owned by the conn's single reader goroutine
	wmu sync.Mutex
	// wbuf is the encode buffer, guarded by wmu.
	wbuf []byte
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

// counting meters a link's raw bytes both ways into the node's counters.
type counting struct {
	rw  io.ReadWriter
	ctr *wireCounters
}

func (cw *counting) Write(p []byte) (int, error) {
	n, err := cw.rw.Write(p)
	cw.ctr.bytesSent.Add(int64(n))
	cw.ctr.writes.Add(1)
	return n, err
}

func (cw *counting) Read(p []byte) (int, error) {
	n, err := cw.rw.Read(p)
	cw.ctr.bytesRecv.Add(int64(n))
	return n, err
}

func newConn(raw net.Conn, peer string, faults *FaultPlan, writeTO time.Duration, ctr *wireCounters) *conn {
	if ctr == nil {
		ctr = &wireCounters{}
	}
	counted := &counting{rw: raw, ctr: ctr}
	c := &conn{
		raw:     raw,
		w:       counted,
		br:      bufio.NewReaderSize(counted, 32<<10),
		peer:    peer,
		faults:  faults,
		writeTO: writeTO,
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

// errFaultSevered reports a connection cut by the fault-injection plan; it
// surfaces through the normal link-failure path so recovery is exercised
// exactly as it would be by a real network partition.
var errFaultSevered = fmt.Errorf("live: connection severed by fault plan")

// send writes one message, serialized with the connection's write lock and
// bounded by the per-message write deadline: a batch of one.
func (c *conn) send(m *message) error {
	_, err := c.sendBatch([]*message{m})
	return err
}

// farewellTimeout bounds Close's goodbye on each link.
const farewellTimeout = 250 * time.Millisecond

// farewell writes a best-effort goodbye frame and closes the conn, within
// farewellTimeout even on a peer that stopped reading: the close then cuts
// off whatever write is stuck on the link, the farewell's own or one that
// holds wmu ahead of it.
func (c *conn) farewell(m *message) {
	cut := time.AfterFunc(farewellTimeout, func() { _ = c.close() })
	defer cut.Stop()
	_ = c.send(m)
	_ = c.close()
}

// stage consults the fault plan for an outbound frame — the one place a
// send-side fault is decided. keep is false for a frame scripted as
// dropped (silently lost in the "network"); errFaultSevered means the plan
// cuts the link at this frame, and the caller closes the conn.
func (c *conn) stage(m *message) (keep bool, err error) {
	if c.faults == nil {
		return true, nil
	}
	switch op, d := c.faults.decide(FaultSend, c.peer, FrameKind(m.Kind)); op {
	case FaultDrop:
		return false, nil
	case FaultDelay:
		time.Sleep(d)
	case FaultSever:
		return false, errFaultSevered
	}
	return true, nil
}

// writeLocked encodes the frames into the encode buffer and writes them in
// one write under the per-message deadline, counting them as sent; callers
// hold wmu, which exists solely to serialize writes and guards no other
// state. An unencodable frame fails the batch before any of it leaves;
// after a write error the link is dead and the bytes go with it.
func (c *conn) writeLocked(ms []*message) error {
	buf := c.wbuf[:0]
	for _, m := range ms {
		var err error
		if buf, err = appendFrame(buf, m); err != nil {
			return err
		}
	}
	c.wbuf = buf
	if c.writeTO > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.writeTO))
	}
	if _, err := c.w.Write(buf); err != nil {
		return err
	}
	c.ctr.framesSent.Add(int64(len(ms)))
	return nil
}

// sendBatch writes the frames back to back — in one buffer, one syscall —
// and reports how many leading frames the "network" accepted (written or
// scripted as drops) before any error.
// On a write error the count is 0: none of the batch may be assumed
// delivered, and the link-failure path takes over. A scripted sever cuts
// the batch at the severed frame, exactly where sequential sends would
// have stopped.
func (c *conn) sendBatch(ms []*message) (int, error) {
	accepted := len(ms)
	var severed error
	keep := ms[:0] // compacted in place; only writes behind the read index
	for i, m := range ms {
		ok, err := c.stage(m)
		if err != nil {
			accepted, severed = i, err
			break
		}
		if ok {
			keep = append(keep, m)
		}
	}
	var werr error
	if len(keep) > 0 {
		c.wmu.Lock()
		werr = c.writeLocked(keep)
		c.wmu.Unlock()
	}
	if severed != nil {
		_ = c.close()
		if werr == nil {
			werr = severed
		}
		return accepted, werr
	}
	if werr != nil {
		return 0, werr
	}
	return accepted, nil
}

// recv reads the next message, stamping the link's proof-of-life clock.
// The returned message is the conn's reusable decode slot: it is valid
// until the next recv, and its Data field aliases the reusable read buffer
// (consumers copy before the next read; Output is already copied by the
// decoder because results outlive the buffer).
func (c *conn) recv() (*message, error) {
	for {
		body, err := readFrame(c.br, c.rbuf)
		c.rbuf = body[:cap(body)]
		if err != nil {
			return nil, err
		}
		if err := decodeFrame(body, &c.rmsg, &c.intern); err != nil {
			return nil, err
		}
		c.ctr.framesRecv.Add(1)
		c.lastRecv.Store(time.Now().UnixNano())
		if c.faults != nil {
			switch op, d := c.faults.decide(FaultRecv, c.peer, FrameKind(c.rmsg.Kind), func() { _ = c.close() }); op {
			case FaultDrop:
				continue // lost before delivery
			case FaultDelay:
				time.Sleep(d)
			case FaultSever:
				return nil, errFaultSevered
			}
		}
		return &c.rmsg, nil
	}
}

// recvTimeout reads one message under a read deadline (handshakes only:
// the steady-state read loop relies on heartbeat supervision instead).
func (c *conn) recvTimeout(d time.Duration) (*message, error) {
	_ = c.raw.SetReadDeadline(time.Now().Add(d))
	defer c.raw.SetReadDeadline(time.Time{})
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

// inTransfer assembles a task arriving in chunks. payload is the
// assembled prefix of the size bytes the first chunk declared; it grows
// with the bytes that arrive, so a chunk declaring a huge size costs at
// most one frameReadStep of memory, not the declared size (like readFrame).
type inTransfer struct {
	id      uint64
	payload []byte
	size    int
	// segment is the trace context of the last chunk, so the flight
	// recorder logs one receive event per transfer segment (the first
	// chunk after each dispatch or resume on the sender).
	segment uint64
}

// feed applies one chunk and reports whether the task is complete: the
// assembled prefix has reached the declared size. A chunk must declare
// the transfer's size, start where the assembled prefix ends and stay
// within the size.
func (t *inTransfer) feed(m *message) (bool, error) {
	if t.payload == nil {
		t.size = m.Size
		t.payload = make([]byte, 0, min(m.Size, frameReadStep))
	}
	got := len(t.payload)
	if m.Size != t.size || m.Offset != got || got+len(m.Data) > t.size {
		return false, fmt.Errorf("live: chunk %d+%d of %d does not extend task %d's %d of %d bytes", m.Offset, len(m.Data), m.Size, m.Task, got, t.size)
	}
	if got+len(m.Data) > cap(t.payload) { // double, but never past the declared size
		t.payload = append(make([]byte, 0, min(t.size, 2*cap(t.payload)+len(m.Data))), t.payload...)
	}
	t.payload = append(t.payload, m.Data...)
	return len(t.payload) == t.size, nil
}

// ewma tracks an exponentially weighted moving average of duration
// samples; the send port uses it as the measured per-chunk communication
// time of each child — the locally observable quantity bandwidth-centric
// priorities are built on. The owner keeps it with the child's session.
type ewma struct {
	value float64 // seconds
	seen  bool
}

const ewmaAlpha = 0.25

func (e *ewma) observe(d time.Duration) {
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
	return e.value
}
