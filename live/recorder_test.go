package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestRecorderWrapExact asserts the ring's eviction accounting is exact:
// after writing more events than the capacity, dropped is precisely the
// overflow, the snapshot holds exactly the newest cap events in order,
// and since() resumes across eviction gaps without duplicates.
func TestRecorderWrapExact(t *testing.T) {
	const capacity, writes = 16, 45
	r := newFlightRecorder(capacity)
	for i := 1; i <= writes; i++ {
		if seq := r.add(Event{Kind: EvRequestSent, Value: int64(i)}); seq != uint64(i) {
			t.Fatalf("event %d got seq %d", i, seq)
		}
	}
	if got, want := r.dropped(), int64(writes-capacity); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	evs, dropped := r.snapshot()
	if dropped != int64(writes-capacity) {
		t.Fatalf("snapshot dropped = %d, want %d", dropped, writes-capacity)
	}
	if len(evs) != capacity {
		t.Fatalf("snapshot holds %d events, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		wantSeq := uint64(writes - capacity + 1 + i)
		if e.Seq != wantSeq || e.Value != int64(wantSeq) {
			t.Fatalf("snapshot[%d] = seq %d value %d, want seq %d", i, e.Seq, e.Value, wantSeq)
		}
	}

	// A follower that fell behind the eviction horizon skips the gap and
	// resumes at the oldest retained event.
	got, cursor := r.since(5)
	if len(got) != capacity || got[0].Seq != uint64(writes-capacity+1) || cursor != writes {
		t.Fatalf("since(5): %d events from seq %d cursor %d", len(got), got[0].Seq, cursor)
	}
	// Caught up: nothing new.
	if more, c2 := r.since(cursor); len(more) != 0 || c2 != cursor {
		t.Fatalf("since(caught-up) returned %d events cursor %d", len(more), c2)
	}
	// One more write: exactly one event, exactly one more eviction.
	r.add(Event{Kind: EvRequestSent, Value: writes + 1})
	more, _ := r.since(cursor)
	if len(more) != 1 || more[0].Seq != writes+1 {
		t.Fatalf("since after one write: %+v", more)
	}
	if got := r.dropped(); got != int64(writes+1-capacity) {
		t.Fatalf("dropped after one more write = %d", got)
	}
}

// TestRecorderDisabled pins that a negative capacity turns recording off
// entirely: no events, no dumps, no counter.
func TestRecorderDisabled(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2),
		WithCompute(echoCompute(0)), WithRecorderCapacity(-1),
	)
	if evs := root.Events(); evs != nil {
		t.Fatalf("disabled recorder returned %d events", len(evs))
	}
	if d := root.TraceDump(); d.Events != nil || d.Node != "root" {
		t.Fatalf("disabled recorder dump: %+v", d)
	}
	if _, err := root.Run(nil, makeTasks(3, 256)); err != nil {
		t.Fatalf("run with recorder disabled: %v", err)
	}
	if s := root.Stats(); s.RecorderDropped != 0 {
		t.Fatalf("disabled recorder dropped %d", s.RecorderDropped)
	}
}

// TestRecorderConcurrentFollow drives a two-node overlay under -race with
// every frame-handling goroutine writing events while a ?follow=1 reader
// streams them: the stream must be valid NDJSON with strictly increasing
// sequence numbers, and the final Stats must surface exact eviction
// counts from the deliberately tiny ring.
func TestRecorderConcurrentFollow(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)), WithRecorderCapacity(64),
	)
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	startNode(t, "w1",
		WithParent(root.Addr()), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)), WithRecorderCapacity(64),
	)

	var wg sync.WaitGroup
	wg.Add(1)
	streamed := make([]Event, 0, 1024)
	var streamErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/events?follow=1", addr))
		if err != nil {
			streamErr = err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var lastSeq uint64
		for sc.Scan() {
			var e Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				streamErr = fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
				return
			}
			if e.Seq <= lastSeq {
				streamErr = fmt.Errorf("seq went %d -> %d", lastSeq, e.Seq)
				return
			}
			lastSeq = e.Seq
			streamed = append(streamed, e)
		}
	}()

	if _, err := runWithin(root, makeTasks(60, 2048), 30*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	root.Close() // ends the follow stream
	wg.Wait()
	if streamErr != nil {
		t.Fatalf("follow stream: %v", streamErr)
	}
	if len(streamed) == 0 {
		t.Fatal("follow stream saw no events")
	}

	// The tiny ring must have wrapped, and the counter must be exact:
	// total recorded = retained + dropped.
	s := root.Stats()
	dump := root.TraceDump()
	if s.RecorderDropped != dump.Dropped {
		t.Fatalf("Stats.RecorderDropped %d != dump.Dropped %d", s.RecorderDropped, dump.Dropped)
	}
	if len(dump.Events) > 0 {
		lastSeq := dump.Events[len(dump.Events)-1].Seq
		if total := uint64(len(dump.Events)) + uint64(dump.Dropped); total != lastSeq {
			t.Fatalf("retained %d + dropped %d != last seq %d", len(dump.Events), dump.Dropped, lastSeq)
		}
	}
	if s.RecorderDropped == 0 {
		t.Fatalf("ring of 64 never wrapped over a 60-task run")
	}
}

// TestRecorderJourneyEvents runs a two-node overlay and asserts the root's
// recorder holds a complete outbound journey for some task — dispatch,
// hand-off, result receive, collection — and the worker's recorder the
// inbound one, with the wire-carried causality pointing at real events.
func TestRecorderJourneyEvents(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2),
		WithCompute(echoCompute(50*time.Millisecond)),
	)
	w1 := startNode(t, "w1",
		WithParent(root.Addr()), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)),
	)
	if _, err := runWithin(root, makeTasks(8, 1024), 30*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}

	rootKinds := map[EventKind][]Event{}
	rootSeqs := map[uint64]Event{}
	for _, e := range root.Events() {
		rootKinds[e.Kind] = append(rootKinds[e.Kind], e)
		rootSeqs[e.Seq] = e
	}
	w1Kinds := map[EventKind][]Event{}
	w1Seqs := map[uint64]Event{}
	for _, e := range w1.Events() {
		w1Kinds[e.Kind] = append(w1Kinds[e.Kind], e)
		w1Seqs[e.Seq] = e
	}
	for _, k := range []EventKind{EvHello, EvRequestServed, EvChunkSend, EvHandoff, EvResultRecv, EvResultCollect} {
		if len(rootKinds[k]) == 0 {
			t.Errorf("root recorded no %v events", k)
		}
	}
	for _, k := range []EventKind{EvHello, EvHelloAck, EvRequestSent, EvChunkRecv, EvTaskReceived, EvComputeStart, EvComputeDone, EvResultSend, EvResultAck} {
		if len(w1Kinds[k]) == 0 {
			t.Errorf("w1 recorded no %v events", k)
		}
	}
	// Causality: the root's result-recv events must name real w1 events of
	// the result-send/replay kinds.
	for _, e := range rootKinds[EvResultRecv] {
		if e.Peer != "w1" || e.CauseSeq == 0 {
			t.Errorf("result-recv without wire causality: %+v", e)
			continue
		}
		cause, ok := w1Seqs[e.CauseSeq]
		if !ok {
			t.Errorf("result-recv names w1#%d, which w1 did not record", e.CauseSeq)
			continue
		}
		if cause.Kind != EvResultSend && cause.Kind != EvResultReplay {
			t.Errorf("result-recv caused by %v, want result-send/replay", cause.Kind)
		}
		if cause.Task != e.Task {
			t.Errorf("result-recv task %d caused by send of task %d", e.Task, cause.Task)
		}
	}
	// And the worker's chunk-recv events must name the root's dispatches,
	// its task-received events the root's hand-off of the same task.
	for _, e := range w1Kinds[EvChunkRecv] {
		if e.Peer != "root" || e.CauseSeq == 0 {
			t.Errorf("chunk-recv without wire causality: %+v", e)
		}
	}
	for _, e := range w1Kinds[EvTaskReceived] {
		if cause := rootSeqs[e.CauseSeq]; e.Peer != "root" || cause.Kind != EvHandoff || cause.Task != e.Task {
			t.Errorf("task-received of task %d caused by root %v of task %d, want its hand-off", e.Task, cause.Kind, cause.Task)
		}
	}
}
