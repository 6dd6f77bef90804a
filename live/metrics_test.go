package live

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape fetches a Prometheus text endpoint and parses it into
// name{labels} -> value.
func scrape(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// TestMetricsEndpointMatchesStats runs a small overlay, then asserts
// every counter /metrics serves equals the corresponding field of the
// Stats snapshot — the acceptance contract for the observability layer.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(2*time.Millisecond)))
	startNode(t, "w1", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
	startNode(t, "w2", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	if _, err := runWithin(root, makeTasks(30, 64), 20*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}

	st := root.Stats()
	got := scrape(t, "http://"+addr+"/metrics")

	want := map[string]int64{
		"live_tasks_computed_total":           st.Computed,
		"live_tasks_forwarded_total":          st.Forwarded,
		"live_tasks_received_total":           st.Received,
		"live_requests_sent_total":            st.Requests,
		"live_send_interrupts_total":          st.Interrupts,
		"live_reconnects_total":               st.Reconnects,
		"live_tasks_requeued_total":           st.Requeued,
		"live_transfers_resumed_total":        st.Resumed,
		"live_heartbeat_misses_total":         st.HeartbeatMisses,
		"live_send_errors_total":              st.SendErrors,
		"live_result_acks_total":              st.ResultAcks,
		"live_results_replayed_total":         st.ResultsReplayed,
		"live_results_deduped_total":          st.ResultsDeduped,
		"live_tasks_requeued_on_revive_total": st.RequeuedOnRevive,
		"live_queued_peak":                    int64(st.MaxQueued),
		"live_connected":                      1, // the root is always connected
		"live_children":                       2,
	}
	for name, v := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if g != v {
			t.Errorf("%s = %d, Stats says %d", name, g, v)
		}
	}
	for child, v := range st.ByChild {
		key := fmt.Sprintf("live_forwarded_by_child_total{child=%q}", child)
		if got[key] != v {
			t.Errorf("%s = %d, Stats says %d", key, got[key], v)
		}
	}
	// The uptime gauge tracks Stats.UptimeSeconds; the scrape happened
	// after the snapshot, so allow the clock to have ticked over.
	up, ok := got["live_uptime_seconds"]
	if !ok {
		t.Errorf("/metrics missing live_uptime_seconds")
	} else if up < st.UptimeSeconds || up > st.UptimeSeconds+2 {
		t.Errorf("live_uptime_seconds = %d, Stats says %d", up, st.UptimeSeconds)
	}
	// process_start_time_seconds is the conventional restart-detection
	// gauge: a unix timestamp no later than now and no earlier than the
	// test binary plausibly started.
	start, ok := got["process_start_time_seconds"]
	now := time.Now().Unix()
	if !ok {
		t.Errorf("/metrics missing process_start_time_seconds")
	} else if start > now || start < now-3600 {
		t.Errorf("process_start_time_seconds = %d, now is %d", start, now)
	}
	// The work must have actually flowed through the overlay, otherwise
	// the equalities above are all 0 == 0.
	if st.Computed+st.Forwarded != 30 || st.Forwarded == 0 {
		t.Fatalf("fixture did not distribute work: %+v", st)
	}
}

// TestMetricsEndpointOnWorker: a non-root node serves /metrics too, and
// reports its uplink as connected.
func TestMetricsEndpointOnWorker(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
	w := startNode(t, "w", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
	addr, err := w.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	if _, err := runWithin(root, makeTasks(10, 32), 20*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := scrape(t, "http://"+addr+"/metrics")
	if got["live_connected"] != 1 {
		t.Fatalf("worker reports disconnected uplink: %v", got)
	}
	st := w.Stats()
	if got["live_tasks_computed_total"] != st.Computed || got["live_tasks_received_total"] != st.Received {
		t.Fatalf("worker metrics diverge from Stats: %v vs %+v", got, st)
	}
}

// TestPprofServed: the status server wires the standard pprof handlers.
func TestPprofServed(t *testing.T) {
	root := startNode(t, "root", WithBuffers(1), WithCompute(echoCompute(0)))
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", path, resp.StatusCode, body)
		}
	}
}
