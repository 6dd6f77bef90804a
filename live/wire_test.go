package live

import (
	"reflect"
	"runtime"
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
		{Kind: kindHello, Name: "mid", N: 2, Holding: []uint64{3, 9, 12},
			Resume: []resumePoint{{Task: 5, Offset: 1024}}},
		{Kind: kindResult, Task: 42, Output: []byte{1, 2, 3}, Origin: "leaf-7"},
	} {
		want.TraceSeq = uint64(i + 1)
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
		{Task: 1, Size: 10, Offset: 8, Data: []byte{8, 9}},
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
}

func TestInTransferRejectsOverflowAndShort(t *testing.T) {
	tr := &inTransfer{id: 2}
	if _, err := tr.feed(&message{Task: 2, Size: 4, Offset: 2, Data: []byte{1, 2, 3}}); err == nil {
		t.Fatalf("overflowing chunk accepted")
	}
	// A chunk whose size disagrees with its transfer's: the size alone
	// says when the transfer is complete.
	tr2 := &inTransfer{id: 3}
	if _, err := tr2.feed(&message{Task: 3, Size: 8, Offset: 0, Data: []byte{1, 2}}); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if done, err := tr2.feed(&message{Task: 3, Size: 4, Offset: 2, Data: []byte{3, 4}}); err == nil {
		t.Fatalf("chunk declaring size 4 of an 8-byte transfer accepted (done %v)", done)
	}
	// A chunk that leaves a gap after the assembled prefix: only a
	// dropped chunk can make one, and the bytes it skipped never arrive.
	tr3 := &inTransfer{id: 4}
	if _, err := tr3.feed(&message{Task: 4, Size: 8, Offset: 0, Data: []byte{1, 2}}); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if _, err := tr3.feed(&message{Task: 4, Size: 8, Offset: 4, Data: []byte{5, 6}}); err == nil {
		t.Fatalf("chunk past a gap accepted")
	}
}

// TestInTransferAllocatesWhatArrives: a chunk's declared size is a claim
// from the wire, bounded only by maxFieldValue. Assembly must allocate
// for the bytes that arrive, not for the claim: one 4-byte chunk
// declaring 1 GiB costs well under a megabyte.
func TestInTransferAllocatesWhatArrives(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := &inTransfer{id: 5}
	if _, err := tr.feed(&message{Task: 5, Size: 1 << 30, Offset: 0, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatalf("feed: %v", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 4-byte chunk declaring 1 GiB allocated %d bytes", grew)
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
// arrive, and must hold no more than the bytes fed plus one read step. It
// reports a transfer done exactly when the declared size is assembled, and
// a second chunk whose size disagrees with the first's is refused.
func FuzzInTransferFeed(f *testing.F) {
	f.Add(10, 0, 4, 10, 6)
	f.Add(10, 8, 2, 10, 2)
	f.Add(0, 0, 0, 0, 0)
	f.Add(4, 2, 3, 4, 1)
	f.Add(8, 0, 2, 4, 2)
	f.Add(1<<20, 1<<19, 4096, 1<<20, 4096)
	f.Fuzz(func(t *testing.T, size, offset, dataLen, size2, dataLen2 int) {
		bad := func(size, dataLen int) bool {
			return size < 0 || size > maxFieldValue || dataLen < 0 || dataLen > 1<<16
		}
		if bad(size, dataLen) || bad(size2, dataLen2) || offset < 0 {
			t.Skip()
		}
		tr := &inTransfer{id: 9}
		done, err := tr.feed(&message{Task: 9, Size: size, Offset: offset, Data: make([]byte, dataLen)})
		if cap(tr.payload) > dataLen+frameReadStep {
			t.Fatalf("holds %d bytes after a %d-byte chunk declaring %d", cap(tr.payload), dataLen, size)
		}
		if err != nil {
			return // rejected malformed input: fine
		}
		if done != (len(tr.payload) == size) {
			t.Fatalf("done %v with %d of %d bytes", done, len(tr.payload), size)
		}
		if done {
			return
		}
		got := len(tr.payload)
		done, err = tr.feed(&message{Task: 9, Size: size2, Offset: got, Data: make([]byte, dataLen2)})
		if size2 != size && err == nil {
			t.Fatalf("a chunk declaring %d bytes extended a %d-byte transfer", size2, size)
		}
		if err == nil && done != (len(tr.payload) == size) {
			t.Fatalf("done %v with %d of %d bytes", done, len(tr.payload), size)
		}
	})
}
