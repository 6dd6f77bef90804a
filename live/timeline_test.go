package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
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

// TestTimelineDisabled: a negative interval turns sampling off, the dump's
// series are null, and /timeline answers 404 in both forms instead of an
// empty document.
func TestTimelineDisabled(t *testing.T) {
	root := startNode(t, "root",
		WithBuffers(1),
		WithCompute(echoCompute(0)), WithTimelineInterval(-1),
	)
	if b, err := json.Marshal(root.TimelineDump()); err != nil || !strings.Contains(string(b), `"series":null`) {
		t.Fatalf("dump with sampling disabled: %s, %v", b, err)
	}
	want404(t, root, "/timeline", "/timeline?follow=1")
}

// want404 serves n's status endpoints and requires each path to answer 404.
func want404(t *testing.T, n *Node, paths ...string) {
	t.Helper()
	addr, err := n.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, path := range paths {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
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

// TestTimelineGolden pins the timeline's format and its merge and halving
// rules: 1,100 scripted passes, fed to a 512-row ring, merge below the
// resolution at 1, 2 and 4 ms and cross two halvings; the dump's JSON and
// the newest pass's follow lines must equal testdata/timeline.golden,
// written by the six-series sampler this ring replaced.
func TestTimelineGolden(t *testing.T) {
	r := newSampleRing(timelineCapacity)
	var ms int64
	for i := 0; i < 1100; i++ {
		ms += int64(i%4) * 2
		var v [len(timelineSeries)]float64
		for c := range v {
			v[c] = float64((i*(c+2))%13) / 4
		}
		r.add(ms, v)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	if err := enc.Encode(TimelineDump{Schema: TimelineSchema, Node: "golden", IntervalMS: 1, Series: r.series()}); err != nil {
		t.Fatal(err)
	}
	rows, _ := r.latest(0)
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/timeline.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("timeline differs from testdata/timeline.golden (res %d, %d rows):\n%s", r.res, len(r.rows), got.Bytes())
	}
}

// TestTimelineBoundedOverLongRun: a million passes at unit spacing stay
// within capacity, with ascending times, an ever coarser resolution, and a
// constant input kept exact through means of means.
func TestTimelineBoundedOverLongRun(t *testing.T) {
	r := newSampleRing(64)
	for i := int64(0); i < 1_000_000; i++ {
		r.add(i, [len(timelineSeries)]float64{1})
	}
	if len(r.rows) > 64 || r.res <= 1 {
		t.Fatalf("%d rows at resolution %d", len(r.rows), r.res)
	}
	for i, row := range r.rows {
		if row.V[0] != 1 || i > 0 && row.T <= r.rows[i-1].T {
			t.Fatalf("row %d = %+v after %+v", i, row, r.rows[max(i-1, 0)])
		}
	}
}

// TestTimelineHalvesOddCount: halving an odd count of rows keeps the last
// one as it is.
func TestTimelineHalvesOddCount(t *testing.T) {
	r := newSampleRing(5)
	for i := int64(0); i <= 5; i++ {
		r.add(i, [len(timelineSeries)]float64{float64(i * 10)})
	}
	// Pairs (0,10)@1, (20,30)@3, the odd 40@4 kept, then 50@5 appended.
	want := []sampleRow{{T: 1, V: [6]float64{5}}, {T: 3, V: [6]float64{25}}, {T: 4, V: [6]float64{40}}, {T: 5, V: [6]float64{50}}}
	if fmt.Sprint(r.rows) != fmt.Sprint(want) || r.res != 2 {
		t.Fatalf("rows %v at resolution %d, want %v at 2", r.rows, r.res, want)
	}
}

// TestTimelineBackwardsTimePanics: a pass may not precede the newest row.
func TestTimelineBackwardsTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("backwards time did not panic")
		}
	}()
	r := newSampleRing(4)
	r.add(10, [len(timelineSeries)]float64{})
	r.add(9, [len(timelineSeries)]float64{})
}

// TestTimelineAppendZeroAllocs pins a pass, halvings included, to zero
// allocations: the owner samples for the node's whole lifetime.
func TestTimelineAppendZeroAllocs(t *testing.T) {
	r := newSampleRing(64)
	var i int64
	allocs := testing.AllocsPerRun(10_000, func() {
		r.add(i, [len(timelineSeries)]float64{float64(i)})
		i++
	})
	if allocs != 0 {
		t.Fatalf("a pass allocates %.1f times on the warm path", allocs)
	}
}

// TestTimelineAppendAndSnapshot: passes a resolution apart each keep a
// row, and the dump's series own their points.
func TestTimelineAppendAndSnapshot(t *testing.T) {
	r := newSampleRing(8)
	r.res = 10
	for i := int64(0); i < 5; i++ {
		r.add(i*10, [len(timelineSeries)]float64{float64(i)})
	}
	if len(r.rows) != 5 || r.res != 10 {
		t.Fatalf("%d rows at resolution %d, want 5 at 10", len(r.rows), r.res)
	}
	s := r.series()
	if len(s) != len(timelineSeries) || s[0].Name != timelineSeries[0] || s[0].Resolution != 10 || len(s[0].Points) != 5 {
		t.Fatalf("series = %+v", s)
	}
	for i, p := range s[0].Points {
		if p != (TimelinePoint{T: int64(i) * 10, V: float64(i)}) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
	s[0].Points[0].V = 99
	if got := r.rows[0].V[0]; got != 0 {
		t.Fatalf("series aliases the ring: rows[0].V[0] = %v", got)
	}
}

// TestTimelineSubResolutionMerge: passes closer than the resolution to
// the newest row fold into it as a running mean, the row taking the newest
// time; a pass a full resolution past that time starts a fresh mean.
func TestTimelineSubResolutionMerge(t *testing.T) {
	r := newSampleRing(8)
	r.res = 10
	for i, v := range []float64{2, 4, 6, 8} {
		r.add(int64(i)*3, [len(timelineSeries)]float64{v})
	}
	if len(r.rows) != 1 || r.rows[0].T != 9 || r.rows[0].V[0] != 5 {
		t.Fatalf("rows %v, want one row {9 5}", r.rows)
	}
	r.add(19, [len(timelineSeries)]float64{100})
	r.add(20, [len(timelineSeries)]float64{200})
	if last := r.rows[len(r.rows)-1]; len(r.rows) != 2 || last.T != 20 || last.V[0] != 150 {
		t.Fatalf("after a new row: rows %v", r.rows)
	}
}

// TestTimelineHalvesOnOverflow: the pass that finds the ring full first
// averages adjacent rows into one at the later time and doubles the
// resolution, then lands.
func TestTimelineHalvesOnOverflow(t *testing.T) {
	r := newSampleRing(4)
	for i := int64(0); i < 4; i++ {
		r.add(i, [len(timelineSeries)]float64{float64(i)})
	}
	if len(r.rows) != 4 || r.res != 1 {
		t.Fatalf("before overflow: %d rows at resolution %d", len(r.rows), r.res)
	}
	r.add(4, [len(timelineSeries)]float64{4})
	want := []sampleRow{{T: 1, V: [6]float64{0.5}}, {T: 3, V: [6]float64{2.5}}, {T: 4, V: [6]float64{4}}}
	if fmt.Sprint(r.rows) != fmt.Sprint(want) || r.res != 2 {
		t.Fatalf("rows %v at resolution %d, want %v at 2", r.rows, r.res, want)
	}
}

// TestTimelineSeriesAndLatest: a dump lists the series in timelineSeries
// order, and a follower gets the newest pass's row once, tagged with its
// pass number.
func TestTimelineSeriesAndLatest(t *testing.T) {
	r := newSampleRing(8)
	if rows, next := r.latest(0); rows != nil || next != 0 {
		t.Fatalf("latest before any pass = %v, %d", rows, next)
	}
	r.add(1, [len(timelineSeries)]float64{10, 20})
	r.add(2, [len(timelineSeries)]float64{11, 21})
	s := r.series()
	for c, name := range timelineSeries {
		if s[c].Name != name {
			t.Fatalf("series %d is %q, want %q", c, s[c].Name, name)
		}
	}
	if len(s[0].Points) != 2 || s[0].Points[1] != (TimelinePoint{T: 2, V: 11}) {
		t.Fatalf("series %s: %+v", s[0].Name, s[0])
	}
	rows, next := r.latest(0)
	if next != 2 || len(rows) != len(timelineSeries) {
		t.Fatalf("latest = %d rows resuming at %d", len(rows), next)
	}
	if rows[1] != (timelineRow{Tick: 2, Series: timelineSeries[1], T: 2, V: 21}) {
		t.Fatalf("latest %s = %+v", timelineSeries[1], rows[1])
	}
	if rows, _ := r.latest(next); rows != nil {
		t.Fatalf("latest after the newest pass = %v", rows)
	}
}
