package live

import (
	"bufio"
	"bytes"
	"testing"
	"time"
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
	chunk := message{Kind: kindChunk, Task: 41, Size: 2048, Offset: 512, Data: payload, TraceSeq: 3}
	req := message{Kind: kindRequest, N: 3, TraceSeq: 4}

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
		if out.Kind != kindRequest || out.N != 3 {
			t.Fatalf("round trip corrupted the request: %+v", out)
		}
	}
	cycle() // warm: grows wbuf/body once, interns "parent"/"child"
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm codec round trip allocates %.0f times, want 0", allocs)
	}
}

// TestHotPathAllocsPinnedOwner is the allocation gate for the owner's
// steady state: one warm leaf cycle through step and decide — a task's
// last chunk received, its compute started, computed, its result batched
// up and folded back in, and acked — allocates at most ownerCycleAllocs
// times. The one allocation is the result's ledger entry.
func TestHotPathAllocsPinnedOwner(t *testing.T) {
	const ownerCycleAllocs = 1
	cfg := defaults("leaf")
	cfg.parent = "parent:1"
	n := newNode(cfg)
	up := &conn{peer: "parent"}
	now := time.Date(2003, 4, 22, 0, 0, 0, 0, time.UTC)
	wake := func(in input) {
		n.step(now, &in)
		n.decide(now)
		clear(n.fx)
		n.fx = n.fx[:0]
	}
	pull := func() { // the writer writes all it holds and pulls again, until parked
		for {
			if n.up.c != nil {
				n.up.accepted = len(n.up.msgs)
			}
			if wake(input{kind: inPull}); !n.upBusy {
				return
			}
		}
	}
	wake(input{kind: inInstalled, c: up, m: message{Kind: kindHelloAck}})
	pull()
	payload := []byte("abcdefgh")
	tr := &inTransfer{payload: payload, size: len(payload)}
	ack := message{Kind: kindResultAck, Acks: []resultKey{{Origin: "leaf"}}}
	id := uint64(0)
	cycle := func() {
		id++
		tr.id, ack.Acks[0].Task = id, id
		wake(input{kind: inUplink, c: up, m: message{Kind: kindChunk, Task: id, Size: len(payload)}, t: tr})
		pull() // the request the compute start freed
		wake(input{kind: inComputed, task: Task{ID: id, Payload: payload}, out: payload, took: time.Millisecond})
		pull() // the result
		wake(input{kind: inUplink, c: up, m: ack})
		if len(n.unacked) != 0 || len(n.computing) != 0 || n.buffer.len() != 0 {
			t.Fatalf("cycle %d left %d unacked, %d computing, %d buffered", id, len(n.unacked), len(n.computing), n.buffer.len())
		}
	}
	for range 3 {
		cycle() // warm: the ledger, the batch and the effect list reach their size
	}
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("%.2f allocations per owner cycle", allocs)
	if allocs > ownerCycleAllocs {
		t.Fatalf("a warm owner cycle allocates %.2f times, want at most %d", allocs, ownerCycleAllocs)
	}
}
