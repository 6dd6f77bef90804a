package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"bwcs/internal/metrics"
)

// StatusSnapshot is the JSON document served by the status endpoint.
type StatusSnapshot struct {
	Name     string             `json:"name"`
	Root     bool               `json:"root"`
	Buffered int                `json:"buffered"`
	Children []string           `json:"children"`
	Stats    Stats              `json:"stats"`
	Links    map[string]float64 `json:"measuredLinkSeconds"` // EWMA per-chunk time by child
	Uptime   string             `json:"uptime"`              // since Start, as Stats.UptimeSeconds
	// Connected reports whether the uplink is currently established; a
	// non-root node mid-reconnect shows false (always true at the root).
	Connected bool `json:"connected"`
}

// statusServer serves node introspection over HTTP.
type statusServer struct {
	node *Node
	srv  *http.Server
	ln   net.Listener
}

// ServeStatus exposes the node's introspection endpoints on the given
// address (use "127.0.0.1:0" for an ephemeral port; the chosen address
// is returned):
//
//	/status        the node's statistics as JSON (StatusSnapshot)
//	/metrics       the same counters in Prometheus text format
//	/timeline      the node's sampled telemetry as JSON (TimelineDump);
//	               ?follow=1 streams each sampling pass as NDJSON until
//	               the client disconnects or the node closes
//	/debug/events  the flight recorder's event dump as JSON (TraceDump);
//	               ?follow=1 streams new events as NDJSON until the
//	               client disconnects or the node closes
//	/debug/pprof/  the standard net/http/pprof profiling handlers
//
// The endpoints are read-only introspection for operating a deployed
// overlay; they stop when the node closes or StopStatus is called.
func (n *Node) ServeStatus(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("live: status listen: %w", err)
	}
	ss := &statusServer{node: n, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", ss.handle)
	mux.HandleFunc("/metrics", ss.handleMetrics)
	mux.HandleFunc("/timeline", ss.handleTimeline)
	mux.HandleFunc("/debug/events", ss.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ss.srv = &http.Server{
		Handler: mux,
		// Slowloris guard: a client must deliver its request header
		// promptly. Response writes are deliberately unbounded — pprof
		// profiles and ?follow=1 event streams run for as long as the
		// client asks — so only the read side carries deadlines.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	err = errors.New("live: status endpoint on a closed node")
	n.query(func() {
		switch {
		case n.closing.Load():
		case n.status != nil:
			err = errors.New("live: status endpoint already running")
		default:
			n.status, err = ss, nil
			n.goTracked(func() {
				_ = ss.srv.Serve(ln) // returns on Close
			})
		}
	})
	if err != nil {
		ln.Close() // no Serve will
		return "", err
	}
	return ln.Addr().String(), nil
}

// StopStatus shuts the status endpoint down; safe to call when none runs.
func (n *Node) StopStatus() {
	var ss *statusServer
	n.query(func() { ss, n.status = n.status, nil })
	if ss != nil {
		_ = ss.srv.Close()
	}
}

// handle renders the snapshot.
func (s *statusServer) handle(w http.ResponseWriter, r *http.Request) {
	snap := s.node.snapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// handleMetrics renders the node's counters in the Prometheus text
// exposition format. Every sample is derived from the same owner-built
// snapshot /status serves, so the two endpoints always agree.
func (s *statusServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.node.snapshot()
	connected := int64(0)
	if snap.Connected {
		connected = 1
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metricsSnapshot(snap.Stats, int64(snap.Buffered), connected, int64(len(snap.Children))).WritePrometheus(w)
}

// processStart anchors process_start_time_seconds, the conventional
// Prometheus gauge scrapers use to detect restarts and compute process
// age.
var processStart = time.Now()

// handleEvents serves the flight recorder. A plain GET returns the full
// TraceDump as JSON — the document cmd/bwtrace merges. With ?follow=1 the
// response is an NDJSON stream of events (one Event per line), starting
// from the oldest retained and polling for new ones until the client
// disconnects or the node closes; events evicted between polls appear as
// gaps in seq.
func (s *statusServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := s.node
	if r.URL.Query().Get("follow") == "" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(n.TraceDump())
		return
	}
	if n.rec == nil {
		http.Error(w, "live: flight recorder disabled", http.StatusNotFound)
		return
	}
	var cursor uint64
	s.follow(w, r, func(line func(any) error) error {
		evs, next := n.rec.since(cursor)
		cursor = next
		for i := range evs {
			if err := line(&evs[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// follow streams an NDJSON response: every 50 ms it polls, and poll hands
// whatever is new to line, one value per line. Each line is flushed as it
// is encoded, not per batch, so a follower sees it at once even mid-batch
// on a slow or long-polling connection. The stream ends when a write
// fails, the client disconnects or the node closes.
func (s *statusServer) follow(w http.ResponseWriter, r *http.Request, poll func(line func(any) error) error) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	line := func(v any) error {
		err := enc.Encode(v)
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		return err
	}
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for poll(line) == nil {
		select {
		case <-t.C:
		case <-r.Context().Done():
			return
		case <-s.node.done:
			return
		}
	}
}

// metricsSnapshot converts a Stats snapshot (plus point-in-time gauges)
// into a renderable metric set. Factored out so tests can assert the
// exact exposition against a Stats value.
func metricsSnapshot(st Stats, buffered, connected, children int64) metrics.Snapshot {
	counter := func(name, help string, v int64) metrics.Family {
		return metrics.Family{Name: name, Help: help, Type: "counter", Samples: []metrics.Sample{{Value: v}}}
	}
	gauge := func(name, help string, v int64) metrics.Family {
		return metrics.Family{Name: name, Help: help, Type: "gauge", Samples: []metrics.Sample{{Value: v}}}
	}
	snap := metrics.Snapshot{
		counter("live_tasks_computed_total", "tasks computed locally", st.Computed),
		counter("live_tasks_forwarded_total", "tasks sent to children", st.Forwarded),
		counter("live_tasks_received_total", "tasks received from the parent", st.Received),
		counter("live_requests_sent_total", "requests sent to the parent", st.Requests),
		counter("live_send_interrupts_total", "send-port switches away from an unfinished transfer", st.Interrupts),
		counter("live_reconnects_total", "successful re-dials of a lost parent link", st.Reconnects),
		counter("live_tasks_requeued_total", "tasks reclaimed from dead subtrees and requeued", st.Requeued),
		counter("live_transfers_resumed_total", "transfers resumed mid-payload after a child reconnected", st.Resumed),
		counter("live_heartbeat_misses_total", "supervision intervals that passed with a silent link", st.HeartbeatMisses),
		counter("live_send_errors_total", "ack sends that failed on a dying link (replay covers them)", st.SendErrors),
		counter("live_result_acks_total", "unacked-ledger entries retired by a parent's result ack", st.ResultAcks),
		counter("live_results_replayed_total", "unacked results retransmitted (reconnect replay or retry)", st.ResultsReplayed),
		counter("live_results_deduped_total", "duplicate results suppressed before relay or collection", st.ResultsDeduped),
		counter("live_tasks_requeued_on_revive_total", "tasks requeued by revive-time reconciliation", st.RequeuedOnRevive),
		counter("live_recorder_dropped_total", "flight-recorder events evicted by ring overflow", st.RecorderDropped),
		counter("live_wire_frames_sent_total", "wire frames sent on all links", st.FramesSent),
		counter("live_wire_frames_received_total", "wire frames received on all links", st.FramesReceived),
		counter("live_wire_bytes_sent_total", "bytes written to all links, codec overhead included", st.BytesSent),
		counter("live_wire_bytes_received_total", "bytes read from all links, codec overhead included", st.BytesReceived),
		gauge("live_buffered_tasks", "tasks currently buffered", buffered),
		gauge("live_queued_peak", "most tasks simultaneously buffered", int64(st.MaxQueued)),
		gauge("live_connected", "whether the uplink is established (always 1 at the root)", connected),
		gauge("live_children", "currently connected children", children),
		gauge("live_uptime_seconds", "seconds since the node started", st.UptimeSeconds),
		gauge("process_start_time_seconds", "unix time the process started", processStart.Unix()),
	}
	if len(st.ByChild) > 0 {
		names := make([]string, 0, len(st.ByChild))
		for name := range st.ByChild {
			names = append(names, name)
		}
		sort.Strings(names)
		f := metrics.Family{Name: "live_forwarded_by_child_total", Help: "tasks forwarded per child", Type: "counter"}
		for _, name := range names {
			f.Samples = append(f.Samples, metrics.Sample{
				Labels: []metrics.Label{{Key: "child", Value: name}},
				Value:  st.ByChild[name],
			})
		}
		snap = append(snap, f)
	}
	if len(st.PerApp) > 0 {
		apps := make([]string, 0, len(st.PerApp))
		for app := range st.PerApp {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		perApp := func(name, help string, get func(AppStats) int64) metrics.Family {
			f := metrics.Family{Name: name, Help: help, Type: "counter"}
			for _, app := range apps {
				f.Samples = append(f.Samples, metrics.Sample{
					Labels: []metrics.Label{{Key: "app", Value: app}},
					Value:  get(st.PerApp[app]),
				})
			}
			return f
		}
		snap = append(snap,
			perApp("live_app_tasks_computed_total", "tasks computed locally per application", func(a AppStats) int64 { return a.Computed }),
			perApp("live_app_tasks_forwarded_total", "tasks sent to children per application", func(a AppStats) int64 { return a.Forwarded }),
			perApp("live_app_tasks_received_total", "tasks received from the parent per application", func(a AppStats) int64 { return a.Received }),
			perApp("live_app_tasks_requeued_total", "tasks reclaimed and requeued per application", func(a AppStats) int64 { return a.Requeued }),
			perApp("live_app_results_collected_total", "results delivered to Run per application (root only)", func(a AppStats) int64 { return a.Collected }),
			perApp("live_app_results_deduped_total", "duplicate results suppressed per application", func(a AppStats) int64 { return a.Deduped }),
		)
	}
	return snap
}
