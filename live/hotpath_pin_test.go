package live

import (
	"bufio"
	"bytes"
	"testing"
)

// TestHotPathAllocsPinned is the allocation gate for the steady-state
// codec path: appendFrame, readFrame and decodeFrame over the data-plane
// frames (kindChunk and kindChunkAck), plus the field helpers and
// interner under them, run allocation-free once the buffers and the
// interner are warm. kindResult is deliberately absent: its decode copies
// the output payload by design (rawCopy), so it is not a zero-alloc path.
func TestHotPathAllocsPinned(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 512)
	chunk := message{Kind: kindChunk, Seq: 9, Task: 41, Size: 2048, Offset: 512,
		Last: false, App: "appA", Data: payload, TraceNode: "parent", TraceSeq: 3}
	ack := message{Kind: kindChunkAck, Seq: 10, Task: 41, Offset: 1024, Last: true,
		TraceNode: "child", TraceSeq: 4}

	var (
		wbuf []byte
		body []byte
		in   interner
		out  message
		src  bytes.Reader
		br   = bufio.NewReader(&src)
	)
	cycle := func() {
		wbuf = wbuf[:0]
		var err error
		if wbuf, err = appendFrame(wbuf, &chunk); err != nil {
			t.Fatalf("appendFrame(chunk): %v", err)
		}
		if wbuf, err = appendFrame(wbuf, &ack); err != nil {
			t.Fatalf("appendFrame(ack): %v", err)
		}
		src.Reset(wbuf)
		br.Reset(&src)
		for i := 0; i < 2; i++ {
			if body, err = readFrame(br, body); err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if err = decodeFrame(body, &out, &in); err != nil {
				t.Fatalf("decodeFrame: %v", err)
			}
		}
		if out.Kind != kindChunkAck || out.Task != 41 || !out.Last {
			t.Fatalf("round trip corrupted the ack: %+v", out)
		}
	}
	cycle() // warm: grows wbuf/body once, interns "appA"/"parent"/"child"
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm codec round trip allocates %.0f times, want 0", allocs)
	}
}
