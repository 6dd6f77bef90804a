package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestTimelineEndpointDump: a node sampling on a fast cadence serves a
// bwcs-timeline/v1 document with the rate and depth series populated
// after work has flowed.
func TestTimelineEndpointDump(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)), WithTimelineInterval(20*time.Millisecond),
	)
	startNode(t, "w1",
		WithParent(root.Addr()), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)), WithTimelineInterval(-1),
	)
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if _, err := runWithin(root, makeTasks(30, 256), 20*time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Let at least one sampling pass observe the completed run.
	deadline := time.Now().Add(5 * time.Second)
	var dump TimelineDump
	for {
		resp, err := http.Get("http://" + addr + "/timeline")
		if err != nil {
			t.Fatalf("GET /timeline: %v", err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type = %q", ct)
		}
		dump = TimelineDump{}
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			t.Fatalf("decode dump: %v", err)
		}
		resp.Body.Close()
		if len(dump.Series) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if dump.Schema != TimelineSchema {
		t.Fatalf("schema = %q, want %q", dump.Schema, TimelineSchema)
	}
	if dump.Node != "root" {
		t.Fatalf("node = %q", dump.Node)
	}
	if dump.IntervalMS != 20 {
		t.Fatalf("intervalMs = %d, want 20", dump.IntervalMS)
	}
	names := map[string]bool{}
	for _, s := range dump.Series {
		names[s.Name] = true
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].T <= s.Points[i-1].T {
				t.Fatalf("series %q timestamps not ascending", s.Name)
			}
		}
	}
	for _, want := range []string{"computed_rate", "forwarded_rate", "received_rate",
		"bytes_sent_rate", "bytes_received_rate", "buffered"} {
		if !names[want] {
			t.Errorf("dump missing series %q (have %v)", want, names)
		}
	}
	// 30 tasks flowed through the root: the forward-rate series must have
	// seen some of them.
	var forwarded float64
	for _, s := range dump.Series {
		if s.Name == "forwarded_rate" {
			for _, p := range s.Points {
				forwarded += p.V
			}
		}
	}
	if forwarded <= 0 {
		t.Fatalf("forwarded_rate never positive across %d series", len(dump.Series))
	}
}

// TestTimelineDisabled: a negative interval turns sampling off and
// /timeline answers 404 instead of an empty document.
func TestTimelineDisabled(t *testing.T) {
	root := startNode(t, "root",
		WithBuffers(1),
		WithCompute(echoCompute(0)), WithTimelineInterval(-1),
	)
	if root.sampler != nil {
		t.Fatalf("sampler running with sampling disabled")
	}
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/timeline")
	if err != nil {
		t.Fatalf("GET /timeline: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// readFirstLine GETs url and returns the response and its first line,
// read while the stream is still open — which only works if the server
// flushes per line rather than buffering until the handler returns.
func readFirstLine(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("GET %s: content type = %q, want application/x-ndjson", url, ct)
	}
	type lineOrErr struct {
		line string
		err  error
	}
	ch := make(chan lineOrErr, 1)
	go func() {
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		ch <- lineOrErr{line, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			resp.Body.Close()
			t.Fatalf("GET %s: first line: %v", url, r.err)
		}
		return resp, r.line
	case <-time.After(10 * time.Second):
		resp.Body.Close()
		t.Fatalf("GET %s: no line arrived while the stream was open (missing per-line flush?)", url)
		return nil, ""
	}
}

// TestFollowStreamsFlushPerLine: both NDJSON follow endpoints must
// deliver each line as it is produced — a client reading a live stream
// sees the first line long before the response ever completes.
func TestFollowStreamsFlushPerLine(t *testing.T) {
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)), WithTimelineInterval(20*time.Millisecond),
	)
	startNode(t, "w1",
		WithParent(root.Addr()), WithBuffers(2),
		WithCompute(echoCompute(time.Millisecond)), WithTimelineInterval(-1),
	)
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	// The handshake already recorded events, and the sampler ticks on its
	// own; both streams must yield a first line while staying open.
	resp, line := readFirstLine(t, fmt.Sprintf("http://%s/debug/events?follow=1", addr))
	var ev Event
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("events stream line %q: %v", line, err)
	}
	resp.Body.Close()

	resp, line = readFirstLine(t, fmt.Sprintf("http://%s/timeline?follow=1", addr))
	var row timelineRow
	if err := json.Unmarshal([]byte(line), &row); err != nil {
		t.Fatalf("timeline stream line %q: %v", line, err)
	}
	if row.Series == "" || row.Tick == 0 {
		t.Fatalf("timeline stream row = %+v", row)
	}
	resp.Body.Close()
}

// TestStatsUptime: the uptime counter reflects the node's age, and
// /status reports the same age, counted from Start even when the
// endpoint opens late.
func TestStatsUptime(t *testing.T) {
	const late = 300 * time.Millisecond
	root := startNode(t, "root", WithBuffers(1), WithCompute(echoCompute(0)))
	if up := root.Stats().UptimeSeconds; up < 0 || up > 60 {
		t.Fatalf("UptimeSeconds = %d just after start", up)
	}
	time.Sleep(late)
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	var snap statusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	up, err := time.ParseDuration(snap.Uptime)
	if err != nil {
		t.Fatalf("uptime %q: %v", snap.Uptime, err)
	}
	if up < late || up < time.Duration(snap.Stats.UptimeSeconds)*time.Second {
		t.Fatalf("uptime %v with UptimeSeconds %d; want at least the %v the node ran before its endpoint opened, and the counter's whole seconds",
			up, snap.Stats.UptimeSeconds, late)
	}
}
