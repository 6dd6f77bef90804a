package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sampleFrames returns one fully populated message per wire kind: every
// field the kind carries on the wire is set to a distinctive value, and
// no field it does not carry is set — so a decoded frame must DeepEqual
// its sample, and a field the codec forgets to carry breaks the equality.
func sampleFrames() []*message {
	return []*message{
		{Kind: kindHello, TraceSeq: 11,
			Name:    "w1",
			N:       2,
			Resume:  []resumePoint{{Task: 7, Offset: 4096}, {Task: 9, Offset: 0}},
			Holding: []uint64{3, 7, 9, 1 << 40}},
		{Kind: kindRequest, TraceSeq: 12,
			N: 3},
		{Kind: kindChunk, TraceSeq: 13,
			Task: 42, Size: 8192, Offset: 4096, Data: []byte("chunk payload bytes")},
		{Kind: kindResult, TraceSeq: 14,
			Task: 42, Output: []byte("result output"), Origin: "w1-leaf"},
		{Kind: kindShutdown, TraceSeq: 15},
		{Kind: kindHeartbeat},
		{Kind: kindHelloAck, TraceSeq: 18,
			Name: "root", Revived: true, Accepted: []uint64{7, 9}},
		{Kind: kindGoodbye, TraceSeq: 19},
		{Kind: kindResultAck, TraceSeq: 20,
			Acks: []resultKey{{Task: 42, Origin: "w1-leaf"}, {Task: 1 << 40, Origin: ""}, {Task: 43, Origin: "w2"}}},
	}
}

// TestSampleFramesCoverEveryKind pins the conformance matrix to the wire
// protocol: adding a wire kind without a sample frame fails here, so the
// round trip below can never silently skip a kind. The kind set
// is parsed from wire.go (kindSelectors gives each name its value, and
// TestFaultSelectorExhaustive keeps that map complete), so a kind
// appended anywhere in the block is seen.
func TestSampleFramesCoverEveryKind(t *testing.T) {
	seen := map[msgKind]bool{}
	for _, m := range sampleFrames() {
		if seen[m.Kind] {
			t.Fatalf("duplicate sample for kind %d", m.Kind)
		}
		seen[m.Kind] = true
	}
	kinds := constNames(t, "wire.go", "msgKind")
	for name := range kinds {
		pin, ok := kindSelectors[name]
		if !ok {
			t.Errorf("wire.go declares %s but kindSelectors does not pin its value", name)
		} else if !seen[pin.kind] {
			t.Errorf("no sample frame for wire kind %s", name)
		}
	}
	if len(seen) != len(kinds) {
		t.Errorf("%d samples for %d kinds", len(seen), len(kinds))
	}
}

// binaryRoundTrip encodes m with appendFrame and decodes it back through
// readFrame + decodeFrame, exactly the production read path.
func binaryRoundTrip(t *testing.T, m *message, in *interner) *message {
	t.Helper()
	buf, err := appendFrame(nil, m)
	if err != nil {
		t.Fatalf("appendFrame(kind %d): %v", m.Kind, err)
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	body, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("readFrame(kind %d): %v", m.Kind, err)
	}
	var out message
	if err := decodeFrame(body, &out, in); err != nil {
		t.Fatalf("decodeFrame(kind %d): %v", m.Kind, err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatalf("kind %d: frame bytes left over after one decode", m.Kind)
	}
	return &out
}

// TestCodecConformanceMatrix round-trips every wire kind through the
// production encode and read path and pins the decode equal to the sample
// field by field — trace context and the handshake's lists and counts
// included.
func TestCodecConformanceMatrix(t *testing.T) {
	var in interner
	for _, m := range sampleFrames() {
		if got := binaryRoundTrip(t, m, &in); !reflect.DeepEqual(got, m) {
			t.Errorf("kind %d: round-trip mismatch\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
	// A kind with no marshal case is refused, not sent header-only, and
	// the frames already batched in the buffer are left as they were.
	batched := []byte("batched")
	if buf, err := appendFrame(batched, &message{Kind: 250}); err == nil || !bytes.Equal(buf, batched) {
		t.Errorf("appendFrame(kind 250) = %q, %v; want the buffer unchanged and an error", buf, err)
	}
}

// TestBinaryFramesAreContiguous pins the batched-write invariant: frames
// appended back to back into one buffer decode back to back with no gap
// bytes — what sendBatch relies on to ship a batch in one write.
func TestBinaryFramesAreContiguous(t *testing.T) {
	samples := sampleFrames()
	var buf []byte
	var err error
	for _, m := range samples {
		if buf, err = appendFrame(buf, m); err != nil {
			t.Fatalf("appendFrame(kind %d): %v", m.Kind, err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var in interner
	var body []byte
	for i, want := range samples {
		if body, err = readFrame(br, body); err != nil {
			t.Fatalf("frame %d: readFrame: %v", i, err)
		}
		var out message
		if err := decodeFrame(body, &out, &in); err != nil {
			t.Fatalf("frame %d: decodeFrame: %v", i, err)
		}
		if !reflect.DeepEqual(&out, want) {
			t.Fatalf("frame %d (kind %d) mismatch after batched encode", i, want.Kind)
		}
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatalf("gap or trailing bytes between batched frames")
	}
}

// gobStreamOpening is how a connection from a build that still spoke gob
// begins: the first bytes of the type description its encoder writes ahead
// of a hello or a hello-ack (captured from the last such build). Read as a
// frame, it is a length prefix of some two megabytes that never arrive.
const gobStreamOpening = "\xff\xda\x7f\x03\x01\x01\amessage\x01\xff\x80\x00\x01\x13\x01\x04Kind\x01\x06\x00\x01\x04Name\x01\f\x00"

// TestCodecNegotiationMatrix is what is left of negotiation with one wire
// format: a peer that speaks it is admitted with the pick echoed, and one
// that does not — a build that spoke gob, a build offering only a version
// this one has never heard of — is refused within the handshake timeout,
// on either side of the link, never downgraded. Refusing costs the parent
// nothing it holds: its listener keeps admitting, and a session that died
// before the refusals is still there to be revived.
func TestCodecNegotiationMatrix(t *testing.T) {
	const handshake = 200 * time.Millisecond
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(0)),
		WithHeartbeat(-1, 0), // the scripted children send no heartbeats
		func(c *config) { c.handshakeTimeout = handshake }, WithReconnectGrace(30*time.Second),
	)
	first, err := dialScripted(root.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if ack, err := first.hello(message{Name: "w"}); err != nil || ack.Revived {
		t.Fatalf("first hello: ack %+v, err %v; want a fresh session", ack, err)
	}
	first.close()
	waitFor(t, "the root to mark the first child gone", func() bool { return childGone(root, "w") })

	futureHello := helloOfVersion(t, kindHello, 99)
	for _, tc := range []struct {
		name    string
		opening []byte
	}{
		{"gob-child", []byte(gobStreamOpening)},
		{"future-child", futureHello},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := dialParent(t, root.Addr())
			start := time.Now()
			if _, err := raw.Write(tc.opening); err != nil {
				t.Fatalf("write: %v", err)
			}
			// Refused: the parent answers nothing and closes its end.
			_ = raw.SetReadDeadline(start.Add(10 * handshake))
			if n, err := raw.Read(make([]byte, 64)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read %d bytes, err %v after %v; want the conn closed unanswered within the %v handshake timeout",
					n, err, time.Since(start), handshake)
			}
			refused := false
			for _, e := range eventsOf(root, EvSever) {
				refused = refused || e.Peer == raw.LocalAddr().String()
			}
			if !refused {
				t.Errorf("the root recorded no sever for the refused peer %v", raw.LocalAddr())
			}
		})
	}

	t.Run("gob-parent", func(t *testing.T) {
		// A parent that answers a hello with the opening of a gob stream.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer l.Close()
		done := make(chan struct{})
		defer close(done)
		go func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if _, err := newScriptedPeer(c).read(); err == nil {
				_, _ = c.Write([]byte(gobStreamOpening))
				<-done // hold the conn open: the child must give up by itself
			}
		}()
		start := time.Now()
		n, err := Start("w",
			WithParent(l.Addr().String()), WithBuffers(3), WithCompute(echoCompute(0)),
			func(c *config) { c.handshakeTimeout = handshake },
		)
		if err == nil {
			n.Close()
			t.Fatalf("a child came up under a parent that speaks gob")
		}
		if took := time.Since(start); !strings.Contains(err.Error(), "hello ack") || took > 5*handshake {
			t.Fatalf("refused after %v with %q; want a hello-ack error within the %v handshake timeout", took, err, handshake)
		}
	})

	t.Run("both-binary", func(t *testing.T) {
		p, err := dialScripted(root.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer p.close()
		ack, err := p.hello(message{Name: "w"}) // decoded, so it carried this build's version
		if err != nil {
			t.Fatalf("hello after the refusals: %v", err)
		}
		if !ack.Revived {
			t.Errorf("the session that died before the refusals was not revived")
		}
	})
}

// helloOfVersion encodes a handshake frame of this layout and patches its
// version byte, the one after the kind, to v.
func helloOfVersion(t *testing.T, kind msgKind, v uint8) []byte {
	t.Helper()
	frame, err := appendFrame(nil, &message{Kind: kind, Name: "other"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	frame[2] = v // one-byte length prefix, the kind, then the version
	return frame
}

// TestVersionSkewHello pins where a hello from another wire version is
// turned away: at its version byte, the first field, before anything of a
// layout this build may not know is parsed — so the refusal names the
// offered byte, and whatever follows it cannot turn it into a parse error.
// The same holds for a hello-ack of another version. The v2 and v3
// boundaries are covered: a v2 peer's byte is 2, and a v3 hello, which
// opened with its frame sequence number, its trace context and a version
// list, offers that number's first byte.
func TestVersionSkewHello(t *testing.T) {
	type skew struct {
		name string
		body []byte
	}
	var cases []skew
	for _, kind := range []msgKind{kindHello, kindHelloAck} {
		for _, v := range []uint8{2, 99} {
			frame := append(helloOfVersion(t, kind, v), "fields of another layout"...)
			cases = append(cases, skew{fmt.Sprintf("kind %d, version %d", kind, v), frame[1:]})
		}
	}
	for _, seq := range []uint64{1, 300} {
		v3 := binary.AppendUvarint([]byte{byte(kindHello)}, seq) // Seq
		v3 = binary.AppendUvarint(v3, 7)                         // TraceSeq
		v3 = append(binary.AppendUvarint(v3, 2), "w1"...)        // TraceNode
		v3 = append(binary.AppendUvarint(v3, 1), 3)              // Codecs: [3]
		v3 = append(binary.AppendUvarint(v3, 2), "w1"...)        // Name
		v3 = binary.AppendUvarint(v3, 0)                         // N
		v3 = binary.AppendUvarint(v3, 0)                         // Holding
		v3 = binary.AppendUvarint(v3, 0)                         // Resume
		cases = append(cases, skew{fmt.Sprintf("v3 hello, Seq %d", seq), v3})
	}
	for _, tc := range cases {
		var m message
		offered := fmt.Sprintf("the peer %d", tc.body[1])
		if err := decodeFrame(tc.body, &m, &interner{}); !errors.Is(err, errWireVersion) || !strings.Contains(err.Error(), offered) {
			t.Errorf("%s: %v; want errWireVersion naming %q", tc.name, err, offered)
		}
	}
}

// TestHandshakeCountsBoundedByFrame: hello and hello-ack are read from a
// peer nothing has vouched for, so a declared Holding, Resume or Accepted
// count larger than the bytes left in the frame is errFrameTruncated before
// the list is allocated — the lie costs the reader nothing.
func TestHandshakeCountsBoundedByFrame(t *testing.T) {
	for name, body := range lyingHandshakeFrames() {
		var in interner
		var m message
		if err := decodeFrame(body, &m, &in); !errors.Is(err, errFrameTruncated) {
			t.Errorf("%s: %v, want errFrameTruncated", name, err)
		}
		// The name ahead of the count is real, small and interned; the
		// count's list must never be made.
		if allocs := testing.AllocsPerRun(50, func() { _ = decodeFrame(body, &m, &in) }); allocs > 0 {
			t.Errorf("%s: decoding the lie allocates %.0f times, want none", name, allocs)
		}
	}
}

// lyingHandshakeFrames builds handshake frame bodies whose list counts
// promise far more elements than the frame holds.
func lyingHandshakeFrames() map[string][]byte {
	field := func(b []byte, s string) []byte { // a length-prefixed string or byte field
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	header := func(kind msgKind, name string) []byte {
		b := []byte{byte(kind), wireVersion}
		b = binary.AppendUvarint(b, 0) // TraceSeq
		return field(b, name)
	}
	const lie = 1 << 39
	holding := binary.AppendUvarint(binary.AppendUvarint(header(kindHello, "w"), 0), lie) // N, then Holding's count
	resume := binary.AppendUvarint(header(kindHello, "w"), 0)                             // N
	resume = binary.AppendUvarint(resume, 0)                                              // Holding: none
	resume = binary.AppendUvarint(resume, lie)                                            // Resume's count
	accepted := binary.AppendUvarint(append(header(kindHelloAck, "root"), 1), lie)        // Revived, then Accepted's count
	return map[string][]byte{"hello-holding": holding, "hello-resume": resume, "ack-accepted": accepted}
}

// dialParent opens a raw TCP connection to a node's listener for
// scripted peers.
func dialParent(t *testing.T, addr string) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// FuzzDecodeFrame drives the binary read path with arbitrary bytes:
// truncated frames, oversized length prefixes, and unknown kinds must
// all error — never panic, never fabricate frame bytes, and never
// allocate more than the bytes actually presented (plus one read step).
// A frame that does decode must re-encode and re-decode to the same
// message (the decoder accepts nothing the encoder cannot produce).
func FuzzDecodeFrame(f *testing.F) {
	for _, m := range sampleFrames() {
		buf, err := appendFrame(nil, m)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(buf)
	}
	// The handshake is the first thing read from a peer nothing has vouched
	// for: seed it with counts that lie about the frame.
	for _, body := range lyingHandshakeFrames() {
		f.Add(append(binary.AppendUvarint(nil, uint64(len(body))), body...))
	}
	// And a result ack whose key count lies the same way.
	lyingAck := binary.AppendUvarint([]byte{byte(kindResultAck), 0}, 1<<39)
	f.Add(append(binary.AppendUvarint(nil, uint64(len(lyingAck))), lyingAck...))
	// Hand-built hostile seeds: empty input, a lying oversized length
	// prefix, a truncated body, an unknown kind.
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add(binary.AppendUvarint(nil, maxFrameBytes-1))
	f.Add(append(binary.AppendUvarint(nil, 100), 3, 1))
	f.Add(append(binary.AppendUvarint(nil, 3), 250, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var in interner
		var buf []byte
		for {
			body, err := readFrame(br, buf)
			buf = body[:cap(body)]
			if err != nil {
				return // truncated/oversized input must stop the stream cleanly
			}
			if len(body) > len(data) {
				t.Fatalf("readFrame returned %d bytes from %d input bytes", len(body), len(data))
			}
			if cap(body) > 2*len(data)+frameReadStep {
				t.Fatalf("readFrame over-allocated: cap %d for %d input bytes", cap(body), len(data))
			}
			var m message
			if err := decodeFrame(body, &m, &in); err != nil {
				continue // malformed body; the next length prefix still frames the stream
			}
			reenc, err := appendFrame(nil, &m)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, m)
			}
			rebr := bufio.NewReader(bytes.NewReader(reenc))
			rebody, err := readFrame(rebr, nil)
			if err != nil {
				t.Fatalf("re-encoded frame does not re-read: %v", err)
			}
			var m2 message
			if err := decodeFrame(rebody, &m2, &in); err != nil {
				t.Fatalf("re-encoded frame does not re-decode: %v", err)
			}
			// Compare before the next readFrame reuses the buffer m.Data
			// aliases.
			if !reflect.DeepEqual(&m, &m2) {
				t.Fatalf("re-encode round-trip mismatch:\n first %+v\nsecond %+v", m, m2)
			}
		}
	})
}
