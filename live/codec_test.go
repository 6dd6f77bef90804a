package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net"
	"reflect"
	"testing"
	"time"
)

// sampleFrames returns one fully populated message per wire kind: every
// field the kind carries on the wire is set to a distinctive value, and
// no field it does not carry is set — so a decoded frame must DeepEqual
// its sample under BOTH codecs, pinning the two field projections to
// each other byte for byte.
func sampleFrames() []*message {
	return []*message{
		{Kind: kindHello, Seq: 101, TraceSeq: 11, TraceNode: "w1",
			Name:    "w1",
			Resume:  []ResumePoint{{Task: 7, Offset: 4096}, {Task: 9, Offset: 0}},
			Holding: []uint64{3, 7, 9, 1 << 40},
			Codecs:  []uint8{1, 7}},
		{Kind: kindRequest, Seq: 102, TraceSeq: 12, TraceNode: "w1",
			N: 3, App: "tenant-a"},
		{Kind: kindChunk, Seq: 103, TraceSeq: 13, TraceNode: "root",
			Task: 42, Size: 8192, Offset: 4096, Data: []byte("chunk payload bytes"),
			Last: true, App: "tenant-a"},
		{Kind: kindResult, Seq: 104, TraceSeq: 14, TraceNode: "w1",
			Task: 42, Output: []byte("result output"), Origin: "w1-leaf", App: "tenant-b"},
		{Kind: kindShutdown, Seq: 105, TraceSeq: 15, TraceNode: "root"},
		{Kind: kindHeartbeat, Seq: 106},
		{Kind: kindChunkAck, Seq: 107, TraceSeq: 17, TraceNode: "w1",
			Task: 42, Offset: 8192, Last: true},
		{Kind: kindHelloAck, Seq: 108, TraceSeq: 18, TraceNode: "root",
			Name: "root", Revived: true, Accepted: []uint64{7, 9}, Codecs: []uint8{1}},
		{Kind: kindGoodbye, Seq: 109, TraceSeq: 19, TraceNode: "w1"},
		{Kind: kindResultAck, Seq: 110, TraceSeq: 20, TraceNode: "root",
			Task: 42, Origin: "w1-leaf"},
	}
}

// TestSampleFramesCoverEveryKind pins the conformance matrix to the wire
// protocol: adding a wire kind without a sample frame fails here, so the
// cross-codec matrix below can never silently skip a kind. The kind set
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

func gobRoundTrip(t *testing.T, m *message) *message {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("gob encode(kind %d): %v", m.Kind, err)
	}
	var out message
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode(kind %d): %v", m.Kind, err)
	}
	return &out
}

// TestCodecConformanceMatrix round-trips every wire kind binary↔binary
// and gob↔gob, and pins the two decodes equal to each other field by
// field — trace context, App tags, and negotiation fields included. A
// field the binary codec forgets to carry (or carries differently)
// breaks the cross-codec equality immediately.
func TestCodecConformanceMatrix(t *testing.T) {
	var in interner
	for _, m := range sampleFrames() {
		bin := binaryRoundTrip(t, m, &in)
		if !reflect.DeepEqual(bin, m) {
			t.Errorf("kind %d: binary round-trip mismatch\n got %+v\nwant %+v", m.Kind, bin, m)
		}
		g := gobRoundTrip(t, m)
		if !reflect.DeepEqual(g, m) {
			t.Errorf("kind %d: gob round-trip mismatch\n got %+v\nwant %+v", m.Kind, g, m)
		}
		if !reflect.DeepEqual(bin, g) {
			t.Errorf("kind %d: binary and gob decodes disagree\nbinary %+v\n   gob %+v", m.Kind, bin, g)
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

// negotiatedCodecs reports the codec each side of a single-child overlay
// actually speaks, read from the live conns.
func negotiatedCodecs(t *testing.T, root, w *Node) (parentSide, childSide Codec) {
	t.Helper()
	root.mu.Lock()
	if len(root.children) != 1 {
		root.mu.Unlock()
		t.Fatalf("root has %d children, want 1", len(root.children))
	}
	parentSide = root.children[0].c.codec
	root.mu.Unlock()
	w.mu.Lock()
	if w.parent == nil {
		w.mu.Unlock()
		t.Fatalf("worker has no uplink")
	}
	childSide = w.parent.codec
	w.mu.Unlock()
	return parentSide, childSide
}

// TestCodecNegotiationMatrix runs a real two-node overlay through every
// mix of codec pins — binary parent / gob child, gob parent / binary
// child, both, neither — and checks that the two sides agree on the
// negotiated codec, that it is the highest common version, and that a
// full run completes over it.
func TestCodecNegotiationMatrix(t *testing.T) {
	cases := []struct {
		name        string
		rootCodecs  []Codec
		childCodecs []Codec
		want        Codec
	}{
		{"both-binary", nil, nil, CodecBinary},
		{"gob-child", nil, []Codec{CodecGob}, CodecGob},
		{"gob-parent", []Codec{CodecGob}, nil, CodecGob},
		{"both-gob", []Codec{CodecGob}, []Codec{CodecGob}, CodecGob},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := startNode(t, Config{
				Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
				Compute: echoCompute(time.Millisecond), WireCodecs: tc.rootCodecs,
			})
			w := startNode(t, Config{
				Name: "w1", Parent: root.Addr(), Buffers: 3,
				Compute: echoCompute(0), WireCodecs: tc.childCodecs,
			})
			tasks := makeTasks(24, 2048)
			results, err := root.RunTimeout(tasks, 30*time.Second)
			if err != nil {
				t.Fatalf("run over %s: %v", tc.name, err)
			}
			assertExactlyOnce(t, results, len(tasks))
			ps, cs := negotiatedCodecs(t, root, w)
			if ps != tc.want || cs != tc.want {
				t.Fatalf("negotiated parent=%v child=%v, want %v both sides", ps, cs, tc.want)
			}
			if st := w.Stats(); st.FramesSent == 0 || st.FramesReceived == 0 ||
				st.BytesSent == 0 || st.BytesReceived == 0 {
				t.Fatalf("wire counters not metered: %+v", st)
			}
		})
	}
}

// TestVersionSkewHello pins the negotiation floor against future
// versions: a hello advertising only codec versions this build does not
// speak negotiates down to gob and the run still completes — a newer
// peer is never rejected, just downgraded.
func TestVersionSkewHello(t *testing.T) {
	root := startNode(t, Config{
		Name: "root", Listen: "127.0.0.1:0", Buffers: 3,
		// Slow root compute so the scripted child is actually served a
		// task; no heartbeats, the script sends none.
		Compute:           echoCompute(50 * time.Millisecond),
		HeartbeatInterval: -1,
	})

	// A scripted child whose hello advertises only the (unknown) codec
	// version 99 — the shape of a build several protocol versions ahead.
	raw := dialParent(t, root.Addr())
	enc, dec := gob.NewEncoder(raw), gob.NewDecoder(raw)
	if err := enc.Encode(&message{Kind: kindHello, Name: "future", Codecs: []uint8{99}}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	var ack message
	if err := dec.Decode(&ack); err != nil || ack.Kind != kindHelloAck {
		t.Fatalf("hello ack: %v (kind %d)", err, ack.Kind)
	}
	if len(ack.Codecs) != 0 {
		t.Fatalf("parent answered codecs %v to a version-skew hello, want gob floor (none)", ack.Codecs)
	}

	// The link speaks gob: request a task, "compute" it, return the
	// result — all plain gob frames — and the run completes exactly-once.
	tasks := makeTasks(4, 512)
	resc := make(chan []Result, 1)
	errc := make(chan error, 1)
	go func() {
		rs, err := root.RunTimeout(tasks, 30*time.Second)
		resc <- rs
		errc <- err
	}()
	if err := enc.Encode(&message{Kind: kindRequest, N: 1}); err != nil {
		t.Fatalf("request: %v", err)
	}
	id, payload := recvTaskGob(t, dec, enc)
	if err := enc.Encode(&message{Kind: kindResult, Task: id,
		Output: payload, Origin: "future"}); err != nil {
		t.Fatalf("result: %v", err)
	}
	go func() { // drain acks/heartbeats so the root's writes never block
		var m message
		for dec.Decode(&m) == nil {
		}
	}()
	results := <-resc
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
	assertExactlyOnce(t, results, len(tasks))
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

// recvTaskGob consumes one complete task over a scripted gob link —
// acking every chunk, skipping heartbeats — and returns its ID and
// assembled payload.
func recvTaskGob(t *testing.T, dec *gob.Decoder, enc *gob.Encoder) (uint64, []byte) {
	t.Helper()
	var payload []byte
	for {
		var m message
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("scripted child decode: %v", err)
		}
		if m.Kind != kindChunk {
			continue
		}
		if payload == nil {
			payload = make([]byte, m.Size)
		}
		copy(payload[m.Offset:], m.Data)
		if err := enc.Encode(&message{Kind: kindChunkAck, Task: m.Task,
			Offset: m.Offset + len(m.Data), Last: m.Last}); err != nil {
			t.Fatalf("scripted child ack: %v", err)
		}
		if m.Last {
			return m.Task, payload
		}
	}
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
