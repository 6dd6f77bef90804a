package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// wireVersion is the one wire format this build speaks: length-prefixed
// binary frames, a uvarint body length followed by an explicitly encoded
// body (frameCoder.fields is the layout), from the first byte of a
// connection. Hello and hello-ack carry it as the byte after the kind; a
// peer that sends another byte there — another version, or a build that
// spoke gob, whose stream does not parse as a frame — is refused within the
// handshake timeout, never downgraded. Per-conn buffers are reused across
// frames, so encoding allocates nothing once warm, and decoding only what
// outlives the read buffer: a result's output, a result ack's key list, a
// handshake's lists (TestHotPathAllocsPinned). Version 2 retired v1's
// chunk ack and made the result ack a list of ledger keys; version 3
// dropped the application tag from requests, chunks and results; version 4
// dropped what the receiver already knows — the frame's sequence number,
// the sender's name, the chunk's last flag — and turned the handshake's
// version list into the one byte.
const wireVersion = 4

const (
	// maxFrameBytes bounds a binary frame's declared body length. A
	// frame carries at most one chunk of payload plus small fields, so
	// anything near this limit is a corrupt or hostile prefix.
	maxFrameBytes = 1 << 30
	// frameReadStep caps each allocation step while reading a frame
	// body: the buffer grows only as bytes actually arrive, so a lying
	// length prefix costs at most one step of memory, not the declared
	// size.
	frameReadStep = 64 << 10
	// maxFieldValue bounds decoded integer fields (sizes, offsets,
	// counts) well under both int64 and the platform int, so arithmetic
	// on them cannot overflow downstream.
	maxFieldValue = 1 << 40
)

var (
	errFrameTooBig    = errors.New("live: binary frame exceeds size limit")
	errFrameTruncated = errors.New("live: truncated binary frame")
	errWireVersion    = errors.New("live: no common wire version")
)

// prefixMax is the widest length prefix a frame can need:
// uvarint(maxFrameBytes) fits in 5 bytes. framePad is the static
// zero-filled gap appendFrame reserves for it, so the reservation is a
// copy rather than a per-frame make().
const prefixMax = 5

var framePad [prefixMax]byte

// appendFrame appends m's length-prefixed binary encoding to buf and
// returns the extended slice: uvarint(len(body)) body, where the body is
// the kind byte followed by the fields frameCoder.fields walks. A kind
// fields does not know is an error, as in decodeFrame, and leaves buf as
// it was, so a new wire kind cannot leave as a header-only frame;
// TestSampleFramesCoverEveryKind and TestCodecConformanceMatrix walk
// every msgKind constant through here.
func appendFrame(buf []byte, m *message) ([]byte, error) {
	start := len(buf)
	// Reserve the widest possible prefix; once the body length is known
	// the real prefix is written and the body slid back over the gap, so
	// batched frames stay contiguous. The gap is copied from a static pad
	// rather than a make() so the reservation never allocates.
	c := frameCoder{buf: append(append(buf, framePad[:]...), byte(m.Kind))}
	c.fields(m)
	if c.err != nil {
		return buf[:start], c.err
	}
	body, buf := start+prefixMax, c.buf
	n := len(buf) - body
	if n > maxFrameBytes {
		return buf[:start], errFrameTooBig
	}
	var prefix [prefixMax]byte
	plen := binary.PutUvarint(prefix[:], uint64(n))
	copy(buf[start:], prefix[:plen])
	if plen < prefixMax {
		// Slide the body over the unused prefix bytes to keep frames
		// contiguous for batched writes.
		copy(buf[start+plen:], buf[body:])
		buf = buf[:start+plen+n]
	}
	return buf, nil
}

// readFrame reads one length-prefixed frame body from br, reusing buf's
// storage when it is large enough. The body is read in frameReadStep
// slices so memory grows only with bytes actually received — a hostile
// length prefix cannot make the reader allocate the declared size up
// front.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return buf[:0], err
	}
	if n > maxFrameBytes {
		return buf[:0], errFrameTooBig
	}
	need := int(n)
	buf = buf[:0]
	for got := 0; got < need; got = len(buf) {
		step := min(need-got, frameReadStep)
		if cap(buf) < got+step { // double, but never past need
			newCap := got + step
			if doubled := 2 * cap(buf); doubled > newCap && doubled <= need {
				newCap = doubled
			}
			buf = append(make([]byte, 0, newCap), buf...)
		}
		buf = buf[:got+step]
		if _, err := io.ReadFull(br, buf[got:]); err != nil {
			return buf[:0], fmt.Errorf("%w: %v", errFrameTruncated, err)
		}
	}
	return buf, nil
}

// interner deduplicates the small recurring strings of a stream — node
// names and result origins — so steady-state decode does not allocate one
// string per result. It belongs to a conn's single reader goroutine (no
// locking) and is capped so a hostile stream cannot grow it without bound.
type interner struct {
	m map[string]string
}

const maxInternEntries = 4096

func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // no allocation on the map probe
		return s
	}
	s := string(b)
	if len(in.m) < maxInternEntries {
		if in.m == nil {
			in.m = make(map[string]string, 8)
		}
		in.m[s] = s
	}
	return s
}

// decodeFrame parses one binary frame body into m, resetting every field
// first so a reused message never leaks state across frames. Decode is
// strict: unknown kinds, malformed fields, and trailing bytes are all
// errors, never panics.
func decodeFrame(data []byte, m *message, in *interner) error {
	*m = message{}
	if len(data) == 0 {
		return errFrameTruncated
	}
	m.Kind = msgKind(data[0])
	c := frameCoder{buf: data, off: 1, dec: true, in: in}
	c.fields(m)
	if c.err == nil && c.off != len(data) {
		return fmt.Errorf("live: %d trailing bytes after %d frame", len(data)-c.off, m.Kind)
	}
	return c.err
}

// frameCoder walks one frame body's fields in wire order, in either
// direction. Encoding, each field helper appends to buf and never writes
// to the message: a frame being encoded is shared with the owner's
// bookkeeping. Decoding, each helper reads buf at off into the message,
// bounds-checked, and the first error stops every later read.
type frameCoder struct {
	buf []byte
	off int
	dec bool
	in  *interner // decode: strings pass through the conn's interner
	err error
}

// fields is the wire layout: the handshake kinds' version byte, the header
// every kind carries, then each kind's fields in order. The version byte
// comes right after the kind, ahead of every field a later layout might
// change, and a decode checks it before reading on: a peer on another
// layout is refused by version, not misread. Data aliases the frame body
// (its consumers copy before the next read); Output and the lists are
// copied or made, because they outlive the read buffer in ledgers,
// channels and the owner's inbox.
func (c *frameCoder) fields(m *message) {
	if m.Kind == kindHello || m.Kind == kindHelloAck {
		c.version()
	}
	c.u64(&m.TraceSeq)
	switch m.Kind {
	case kindHello:
		c.str(&m.Name)
		c.int(&m.N)
		c.u64s(&m.Holding)
		if n := c.count(len(m.Resume), 2); c.dec && n > 0 {
			m.Resume = make([]resumePoint, n)
		}
		for i := range m.Resume {
			c.u64(&m.Resume[i].Task)
			c.int(&m.Resume[i].Offset)
		}
	case kindHelloAck:
		c.str(&m.Name)
		c.bool(&m.Revived)
		c.u64s(&m.Accepted)
	case kindRequest:
		c.int(&m.N)
	case kindChunk:
		c.u64(&m.Task)
		c.int(&m.Size)
		c.int(&m.Offset)
		c.bytes(&m.Data, true)
	case kindResult:
		c.u64(&m.Task)
		c.str(&m.Origin)
		c.bytes(&m.Output, false)
	case kindResultAck:
		if n := c.count(len(m.Acks), 2); c.dec && n > 0 {
			m.Acks = make([]resultKey, n)
		}
		for i := range m.Acks {
			c.u64(&m.Acks[i].Task)
			c.str(&m.Acks[i].Origin)
		}
	case kindShutdown, kindHeartbeat, kindGoodbye:
		// Header only.
	default:
		if c.err == nil {
			c.err = fmt.Errorf("live: unknown frame kind %d", m.Kind)
		}
	}
}

// uvarint reads one uvarint; after an error it reads nothing and is 0.
func (c *frameCoder) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.err = errFrameTruncated
		return 0
	}
	c.off += n
	return v
}

// raw reads a uvarint-length-prefixed byte field as a subslice of the
// frame body; empty is nil.
func (c *frameCoder) raw() []byte {
	n := c.uvarint()
	if c.err == nil && n > uint64(len(c.buf)-c.off) {
		c.err = errFrameTruncated
	}
	if c.err != nil || n == 0 {
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *frameCoder) u64(p *uint64) {
	if c.dec {
		*p = c.uvarint()
	} else {
		c.buf = binary.AppendUvarint(c.buf, *p)
	}
}

// int carries a non-negative integer: a negative one is not encoded, and
// a decoded one is bounded by maxFieldValue.
func (c *frameCoder) int(p *int) {
	if !c.dec {
		if *p < 0 {
			c.err = fmt.Errorf("live: negative field %d", *p)
		}
		c.buf = binary.AppendUvarint(c.buf, uint64(*p))
		return
	}
	if v := c.uvarint(); v > maxFieldValue {
		c.err = fmt.Errorf("live: frame field %d exceeds bound", v) // v > 0: no earlier error
	} else {
		*p = int(v)
	}
}

// count carries a list's length n. A decoded count is bounded by the bytes
// left over min, the least an element can take, so a lying count cannot
// drive a large allocation; after an error it is 0.
func (c *frameCoder) count(n, min int) int {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
		return n
	}
	v := c.uvarint()
	if c.err == nil && v > uint64((len(c.buf)-c.off)/min) {
		c.err = errFrameTruncated
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// bytes carries a length-prefixed byte field. A decoded one aliases the
// frame body if alias is set and is copied otherwise.
func (c *frameCoder) bytes(p *[]byte, alias bool) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		c.buf = append(c.buf, *p...)
		return
	}
	if b := c.raw(); alias || b == nil {
		*p = b
	} else {
		*p = append([]byte(nil), b...)
	}
}

// version carries a handshake's wire-version byte: this build's, and on
// decode any other stops the decode. It is the first field read, so no
// earlier error can be pending.
func (c *frameCoder) version() {
	switch {
	case !c.dec:
		c.buf = append(c.buf, wireVersion)
	case c.off >= len(c.buf):
		c.err = errFrameTruncated
	case c.buf[c.off] != wireVersion:
		c.err = fmt.Errorf("%w: this build speaks %d, the peer %d", errWireVersion, wireVersion, c.buf[c.off])
	default:
		c.off++
	}
}

func (c *frameCoder) str(p *string) {
	if c.dec {
		*p = c.in.intern(c.raw())
		return
	}
	c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
	c.buf = append(c.buf, *p...)
}

func (c *frameCoder) bool(p *bool) {
	if !c.dec {
		var b byte
		if *p {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	switch {
	case c.err != nil:
	case c.off >= len(c.buf):
		c.err = errFrameTruncated
	case c.buf[c.off] > 1:
		c.err = fmt.Errorf("live: bad bool byte %d in frame", c.buf[c.off])
	default:
		*p = c.buf[c.off] == 1
		c.off++
	}
}

// u64s carries a count-prefixed uvarint list.
func (c *frameCoder) u64s(p *[]uint64) {
	if n := c.count(len(*p), 1); c.dec && n > 0 {
		*p = make([]uint64, n)
	}
	for i := range *p {
		c.u64(&(*p)[i])
	}
}
