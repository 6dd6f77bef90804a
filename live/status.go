package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// statusSnapshot is the JSON document served by the status endpoint.
type statusSnapshot struct {
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

// statusServer serves node introspection over HTTP. The shell runs serve,
// the one reference to srv.Serve, so a program that never serves links none.
type statusServer struct {
	srv   *http.Server
	ln    net.Listener
	serve func()
}

// ServeStatus exposes the node's introspection endpoints on the given
// address (use "127.0.0.1:0" for an ephemeral port; the chosen address
// is returned):
//
//	/status        the node's statistics as JSON (name, root, buffered,
//	               children, stats, measuredLinkSeconds, uptime, connected)
//	/timeline      the node's sampled telemetry as JSON (TimelineDump);
//	               ?follow=1 streams each sampling pass as NDJSON until
//	               the client disconnects or the node closes
//	/debug/events  the flight recorder's event dump as JSON (TraceDump);
//	               ?follow=1 streams new events as NDJSON until the
//	               client disconnects or the node closes
//	/debug/pprof/  the standard net/http/pprof profiling handlers
//
// The endpoints are read-only introspection for operating a deployed
// overlay; they stop when the node closes.
func (n *Node) ServeStatus(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("live: status listen: %w", err)
	}
	ss := &statusServer{ln: ln}
	ss.serve = func() { _ = ss.srv.Serve(ln) } // returns on Close
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, n.snapshot()) })
	mux.HandleFunc("/timeline", n.handleTimeline)
	mux.HandleFunc("/debug/events", n.handleEvents)
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

	if r, ok := n.ask(input{kind: inStatus, status: ss}); !ok || r.status != ss { // the owner starts Serve
		ln.Close() // no Serve will
		if !ok {
			return "", errors.New("live: status endpoint on a closed node")
		}
		return "", errors.New("live: status endpoint already running")
	}
	return ln.Addr().String(), nil
}

// writeJSON serves v as one indented JSON document.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleEvents serves the flight recorder. A plain GET returns the full
// TraceDump as JSON — the document cmd/bwtrace merges. With ?follow=1 the
// response is an NDJSON stream of events (one Event per line), starting
// from the oldest retained and polling for new ones until the client
// disconnects or the node closes; events evicted between polls appear as
// gaps in seq.
func (n *Node) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("follow") == "" {
		writeJSON(w, n.TraceDump())
		return
	}
	if n.rec == nil {
		http.Error(w, "live: flight recorder disabled", http.StatusNotFound)
		return
	}
	var cursor uint64
	n.follow(w, r, func(line func(any) error) error {
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
func (n *Node) follow(w http.ResponseWriter, r *http.Request, poll func(line func(any) error) error) {
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
		case <-n.done:
			return
		}
	}
}
