package live

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
)

// TestStatusEndpointOnWorker: a non-root node serves /status too, reports
// its uplink as connected, and its counters are its Stats.
func TestStatusEndpointOnWorker(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(5*time.Millisecond)))
	w := startNode(t, "w", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
	addr, err := w.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	if _, err := runWithin(root, makeTasks(10, 32), 20*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
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
	if !snap.Connected || snap.Root {
		t.Fatalf("worker reports connected %v, root %v; want a connected non-root", snap.Connected, snap.Root)
	}
	st := w.Stats()
	if snap.Stats.Computed != st.Computed || snap.Stats.Received != st.Received {
		t.Fatalf("worker /status diverges from Stats: %+v vs %+v", snap.Stats, st)
	}
	if st.Received == 0 {
		t.Fatalf("worker received no task, so the equality above is 0 == 0")
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
