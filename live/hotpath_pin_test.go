package live

import (
	"bufio"
	"bytes"
	"testing"
)

// TestHotPathAllocsPinned is the allocation gate for the steady-state
// codec path: appendFrame, readFrame and decodeFrame over the frames every
// task costs one way or the other (kindChunk and kindRequest), plus the
// field helpers and interner under them, run allocation-free once the
// buffers and the interner are warm. kindResult and kindResultAck are
// deliberately absent: their decodes copy the output payload and
// make the key list by design, so they are not zero-alloc paths.
func TestHotPathAllocsPinned(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 512)
	chunk := message{Kind: kindChunk, Seq: 9, Task: 41, Size: 2048, Offset: 512,
		Last: false, App: "appA", Data: payload, TraceNode: "parent", TraceSeq: 3}
	req := message{Kind: kindRequest, Seq: 10, N: 3, App: "appA", TraceNode: "child", TraceSeq: 4}

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
		if wbuf, err = appendFrame(wbuf, &req); err != nil {
			t.Fatalf("appendFrame(request): %v", err)
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
		if out.Kind != kindRequest || out.N != 3 || out.App != "appA" {
			t.Fatalf("round trip corrupted the request: %+v", out)
		}
	}
	cycle() // warm: grows wbuf/body once, interns "appA"/"parent"/"child"
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm codec round trip allocates %.0f times, want 0", allocs)
	}
}
