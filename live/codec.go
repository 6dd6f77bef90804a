package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// wireVersion is the one wire format this build speaks: length-prefixed
// binary frames, a uvarint body length followed by an explicitly encoded
// body (see appendFrame for the layout), from the first byte of a
// connection. A hello offers it in its Codecs list and the hello-ack echoes
// it as the parent's pick; a peer whose list lacks it — another version,
// or a build that spoke gob, whose stream does not parse as a frame — is
// refused within the handshake timeout, never downgraded. Per-conn buffers
// are reused across frames, so steady-state encode and decode allocate
// nothing but a result ack's list. Version 2 retired v1's chunk ack and
// made the result ack a list of ledger keys.
const wireVersion = 2

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
// returns the extended slice. The layout is
//
//	uvarint(len(body)) body
//	body := kind(1 byte) | Seq uvarint | TraceSeq uvarint | TraceNode string | fields…
//
// where strings and byte fields are uvarint-length-prefixed and the
// per-kind fields are fixed by the switch below. The handshake kinds put
// their version list first, ahead of every field a later layout might
// change. A kind without a
// marshal case is an error, as in decodeFrame, so a new wire kind cannot
// leave as a header-only frame; TestSampleFramesCoverEveryKind and
// TestCodecConformanceMatrix walk every msgKind constant through here.
func appendFrame(buf []byte, m *message) ([]byte, error) {
	if m.N < 0 || m.Size < 0 || m.Offset < 0 {
		return buf, fmt.Errorf("live: negative field on %d frame", m.Kind)
	}
	start := len(buf)
	// Reserve the widest possible prefix; once the body length is known
	// the real prefix is written and the body slid back over the gap, so
	// batched frames stay contiguous. The gap is copied from a static pad
	// rather than a make() so the reservation never allocates.
	buf = append(buf, framePad[:]...)
	body := len(buf)

	buf = append(buf, byte(m.Kind))
	buf = binary.AppendUvarint(buf, m.Seq)
	buf = binary.AppendUvarint(buf, m.TraceSeq)
	buf = appendStringField(buf, m.TraceNode)
	switch m.Kind {
	case kindHello:
		buf = appendBytesField(buf, m.Codecs)
		buf = appendStringField(buf, m.Name)
		buf = binary.AppendUvarint(buf, uint64(m.N))
		buf = appendU64Field(buf, m.Holding)
		buf = binary.AppendUvarint(buf, uint64(len(m.Resume)))
		for _, rp := range m.Resume {
			buf = binary.AppendUvarint(buf, rp.Task)
			buf = binary.AppendUvarint(buf, uint64(rp.Offset))
		}
	case kindHelloAck:
		buf = appendBytesField(buf, m.Codecs)
		buf = appendStringField(buf, m.Name)
		buf = appendBool(buf, m.Revived)
		buf = appendU64Field(buf, m.Accepted)
	case kindRequest:
		buf = binary.AppendUvarint(buf, uint64(m.N))
		buf = appendStringField(buf, m.App)
	case kindChunk:
		buf = binary.AppendUvarint(buf, m.Task)
		buf = binary.AppendUvarint(buf, uint64(m.Size))
		buf = binary.AppendUvarint(buf, uint64(m.Offset))
		buf = appendBool(buf, m.Last)
		buf = appendStringField(buf, m.App)
		buf = appendBytesField(buf, m.Data)
	case kindResult:
		buf = binary.AppendUvarint(buf, m.Task)
		buf = appendStringField(buf, m.Origin)
		buf = appendStringField(buf, m.App)
		buf = appendBytesField(buf, m.Output)
	case kindResultAck:
		buf = binary.AppendUvarint(buf, uint64(len(m.Acks)))
		for _, k := range m.Acks {
			buf = binary.AppendUvarint(buf, k.Task)
			buf = appendStringField(buf, k.Origin)
		}
	case kindShutdown, kindHeartbeat, kindGoodbye:
		// Header only.
	default:
		return buf[:start], fmt.Errorf("live: no binary encoding for frame kind %d", m.Kind)
	}

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

func appendStringField(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytesField(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendU64Field(buf []byte, vs []uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
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
	if cap(buf) >= need {
		buf = buf[:need]
		if _, err := io.ReadFull(br, buf); err != nil {
			return buf[:0], fmt.Errorf("%w: %v", errFrameTruncated, err)
		}
		return buf, nil
	}
	buf = buf[:0]
	got := 0
	for got < need {
		step := need - got
		if step > frameReadStep {
			step = frameReadStep
		}
		if cap(buf) < got+step {
			newCap := got + step
			if doubled := 2 * cap(buf); doubled > newCap && doubled <= need {
				newCap = doubled
			}
			nb := make([]byte, newCap)
			copy(nb, buf[:got])
			buf = nb
		}
		buf = buf[:got+step]
		if _, err := io.ReadFull(br, buf[got:]); err != nil {
			return buf[:0], fmt.Errorf("%w: %v", errFrameTruncated, err)
		}
		got += step
	}
	return buf, nil
}

// interner deduplicates the small recurring strings of a stream — node
// names, application tags, trace origins — so steady-state decode does
// not allocate one string per frame. It belongs to a conn's single
// reader goroutine (no locking) and is capped so a hostile stream
// cannot grow it without bound.
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

// frameReader is a bounds-checked cursor over one frame body.
type frameReader struct {
	b   []byte
	off int
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errFrameTruncated
	}
	r.off += n
	return v, nil
}

// intField decodes a non-negative integer bounded by maxFieldValue.
func (r *frameReader) intField() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxFieldValue {
		return 0, fmt.Errorf("live: frame field %d exceeds bound", v)
	}
	return int(v), nil
}

// raw returns the next length-prefixed byte field as a subslice of the
// frame body (valid only until the read buffer is reused).
func (r *frameReader) raw() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off) {
		return nil, errFrameTruncated
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *frameReader) boolField() (bool, error) {
	if r.off >= len(r.b) {
		return false, errFrameTruncated
	}
	v := r.b[r.off]
	r.off++
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("live: bad bool byte %d in frame", v)
	}
}

// u64s decodes a count-prefixed uvarint list; the count is validated
// against the bytes remaining so a lying count cannot drive a large
// allocation.
func (r *frameReader) u64s() ([]uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(r.b)-r.off) { // each element is at least one byte
		return nil, errFrameTruncated
	}
	out := make([]uint64, n)
	for i := range out {
		if out[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeFrame parses one binary frame body into m, resetting every field
// first so a reused message never leaks state across frames. Data
// aliases the frame body (its consumers copy before the next read);
// Output is copied and a result ack's list made, because they outlive the
// read buffer in ledgers, channels and the owner's inbox. Strings pass
// through the conn's interner. Decode is strict: unknown kinds, malformed
// fields, and trailing bytes are all errors, never panics.
func decodeFrame(data []byte, m *message, in *interner) error {
	*m = message{}
	r := frameReader{b: data}
	if len(data) == 0 {
		return errFrameTruncated
	}
	m.Kind = msgKind(data[0])
	r.off = 1
	var err error
	if m.Seq, err = r.uvarint(); err != nil {
		return err
	}
	if m.TraceSeq, err = r.uvarint(); err != nil {
		return err
	}
	var b []byte
	if b, err = r.raw(); err != nil {
		return err
	}
	m.TraceNode = in.intern(b)

	if m.Kind == kindHello || m.Kind == kindHelloAck {
		// The version list is checked before anything behind it is parsed:
		// a peer on another layout is refused by version, not misread.
		if m.Codecs, err = r.rawCopy(); err != nil {
			return err
		}
		if bytes.IndexByte(m.Codecs, wireVersion) < 0 {
			return fmt.Errorf("%w: this build speaks %d, the peer %v", errWireVersion, wireVersion, m.Codecs)
		}
	}
	switch m.Kind {
	case kindHello:
		if b, err = r.raw(); err != nil {
			return err
		}
		m.Name = in.intern(b)
		if m.N, err = r.intField(); err != nil {
			return err
		}
		if m.Holding, err = r.u64s(); err != nil {
			return err
		}
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > uint64(len(r.b)-r.off)/2 { // each resume point is ≥ 2 bytes
			return errFrameTruncated
		}
		if count > 0 {
			m.Resume = make([]resumePoint, count)
			for i := range m.Resume {
				if m.Resume[i].Task, err = r.uvarint(); err != nil {
					return err
				}
				if m.Resume[i].Offset, err = r.intField(); err != nil {
					return err
				}
			}
		}
	case kindHelloAck:
		if b, err = r.raw(); err != nil {
			return err
		}
		m.Name = in.intern(b)
		if m.Revived, err = r.boolField(); err != nil {
			return err
		}
		if m.Accepted, err = r.u64s(); err != nil {
			return err
		}
	case kindRequest:
		if m.N, err = r.intField(); err != nil {
			return err
		}
		if b, err = r.raw(); err != nil {
			return err
		}
		m.App = in.intern(b)
	case kindChunk:
		if m.Task, err = r.uvarint(); err != nil {
			return err
		}
		if m.Size, err = r.intField(); err != nil {
			return err
		}
		if m.Offset, err = r.intField(); err != nil {
			return err
		}
		if m.Last, err = r.boolField(); err != nil {
			return err
		}
		if b, err = r.raw(); err != nil {
			return err
		}
		m.App = in.intern(b)
		if m.Data, err = r.raw(); err != nil {
			return err
		}
		if len(m.Data) == 0 {
			m.Data = nil
		}
	case kindResult:
		if m.Task, err = r.uvarint(); err != nil {
			return err
		}
		if b, err = r.raw(); err != nil {
			return err
		}
		m.Origin = in.intern(b)
		if b, err = r.raw(); err != nil {
			return err
		}
		m.App = in.intern(b)
		if m.Output, err = r.rawCopy(); err != nil {
			return err
		}
	case kindResultAck:
		count, err := r.uvarint()
		if err != nil {
			return err
		}
		if count > uint64(len(r.b)-r.off)/2 { // each key is ≥ 2 bytes
			return errFrameTruncated
		}
		if count > 0 {
			m.Acks = make([]resultKey, count)
			for i := range m.Acks {
				if m.Acks[i].Task, err = r.uvarint(); err != nil {
					return err
				}
				if b, err = r.raw(); err != nil {
					return err
				}
				m.Acks[i].Origin = in.intern(b)
			}
		}
	case kindShutdown, kindHeartbeat, kindGoodbye:
		// Header only.
	default:
		return fmt.Errorf("live: unknown frame kind %d", m.Kind)
	}
	if r.off != len(data) {
		return fmt.Errorf("live: %d trailing bytes after %d frame", len(data)-r.off, m.Kind)
	}
	return nil
}

// rawCopy is raw with the bytes copied out of the frame body, for fields
// that outlive the read buffer; empty fields stay nil.
func (r *frameReader) rawCopy() ([]byte, error) {
	b, err := r.raw()
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}
