package live

import (
	"reflect"
	"testing"
	"time"
)

// TestWireKindValuesStable pins the numeric value of every frame kind:
// the values are the wire protocol, and reordering the const block would
// silently break mixed-version overlays and recorded fault plans.
func TestWireKindValuesStable(t *testing.T) {
	want := map[msgKind]uint8{
		kindHello:     1,
		kindRequest:   2,
		kindChunk:     3,
		kindResult:    4,
		kindShutdown:  5,
		kindHeartbeat: 6,
		kindHelloAck:  8,
		kindGoodbye:   9,
		kindResultAck: 10,
	}
	for k, v := range want {
		if uint8(k) != v {
			t.Errorf("kind %d renumbered: want %d", k, v)
		}
	}
	if FrameResultAck != FrameKind(kindResultAck) {
		t.Errorf("FrameResultAck = %d, want %d", FrameResultAck, kindResultAck)
	}
}

// TestResultAckRoundTrip runs the result-ack frame and a Holding-carrying
// hello through the codec: the ack must preserve its ledger keys (task ID +
// origin) in order, the hello its reconciliation set and its request count.
func TestResultAckRoundTrip(t *testing.T) {
	var in interner
	for i, want := range []*message{
		{Kind: kindResultAck, Acks: []resultKey{{Task: 42, Origin: "leaf-7"}, {Task: 7, Origin: "mid"}, {Task: 43, Origin: "leaf-7"}}},
		{Kind: kindHello, Codecs: []uint8{wireVersion}, Name: "mid", N: 2, Holding: []uint64{3, 9, 12},
			Resume: []resumePoint{{Task: 5, Offset: 1024}}},
		{Kind: kindResult, Task: 42, Output: []byte{1, 2, 3}, Origin: "leaf-7"},
	} {
		want.Seq = uint64(i + 1) // appendFrame encodes it; a conn would have stamped it
		if got := binaryRoundTrip(t, want, &in); !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d round-tripped to %+v, want %+v", i, got, *want)
		}
	}
}

func TestInTransferAssembly(t *testing.T) {
	tr := &inTransfer{id: 1}
	// Three chunks of a 10-byte payload.
	chunks := []*message{
		{Task: 1, Size: 10, Offset: 0, Data: []byte{0, 1, 2, 3}},
		{Task: 1, Size: 10, Offset: 4, Data: []byte{4, 5, 6, 7}},
		{Task: 1, Size: 10, Offset: 8, Data: []byte{8, 9}, Last: true},
	}
	for i, m := range chunks {
		done, err := tr.feed(m)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if done != (i == len(chunks)-1) {
			t.Fatalf("chunk %d done=%v", i, done)
		}
	}
	for i, b := range tr.payload {
		if int(b) != i {
			t.Fatalf("payload[%d] = %d", i, b)
		}
	}
	// An untagged transfer (single-application run) must not fabricate an
	// app on assembly.
	if tr.app != "" {
		t.Errorf("untagged transfer acquired app %q", tr.app)
	}
}

func TestInTransferRejectsOverflowAndShort(t *testing.T) {
	tr := &inTransfer{id: 2}
	if _, err := tr.feed(&message{Task: 2, Size: 4, Offset: 2, Data: []byte{1, 2, 3}}); err == nil {
		t.Fatalf("overflowing chunk accepted")
	}
	tr2 := &inTransfer{id: 3}
	if _, err := tr2.feed(&message{Task: 3, Size: 8, Offset: 0, Data: []byte{1, 2}, Last: true}); err == nil {
		t.Fatalf("short final chunk accepted")
	}
}

func TestEwma(t *testing.T) {
	var e ewma
	if e.estimate() != 0 {
		t.Fatalf("fresh estimate not zero")
	}
	e.observe(100 * time.Millisecond)
	if got := e.estimate(); got != 0.1 {
		t.Fatalf("first observation not adopted: %v", got)
	}
	e.observe(200 * time.Millisecond)
	got := e.estimate()
	if got <= 0.1 || got >= 0.2 {
		t.Fatalf("EWMA %v not between samples", got)
	}
}

// FuzzInTransferFeed hardens chunk assembly against malformed wire input:
// feed must never panic or write out of bounds, whatever offsets and sizes
// arrive.
func FuzzInTransferFeed(f *testing.F) {
	f.Add(10, 0, 4, false)
	f.Add(10, 8, 2, true)
	f.Add(0, 0, 0, true)
	f.Add(4, 2, 3, false)
	f.Add(1<<20, 1<<19, 4096, false)
	f.Fuzz(func(t *testing.T, size, offset, dataLen int, last bool) {
		if size < 0 || size > 1<<22 || offset < 0 || dataLen < 0 || dataLen > 1<<16 {
			t.Skip()
		}
		tr := &inTransfer{id: 9}
		m := &message{Task: 9, Size: size, Offset: offset, Data: make([]byte, dataLen), Last: last}
		done, err := tr.feed(m)
		if err != nil {
			return // rejected malformed input: fine
		}
		if done && tr.got != len(tr.payload) {
			t.Fatalf("reported done with %d of %d bytes", tr.got, len(tr.payload))
		}
	})
}
