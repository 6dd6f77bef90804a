// Package metrics holds the two telemetry value types the runtimes
// share: Snapshot, a hand-assembled set of counter and gauge families
// rendered in the Prometheus text exposition format (the live node's
// /metrics endpoint builds one from live.Stats on every scrape), and
// TimeSeries/Sampler, the bounded time-series ring behind the engine and
// live timelines (timeseries.go).
//
// There are no instruments and no registry: the engine and the live node
// keep their counters as plain struct fields (engine.Metrics,
// live.Stats), and a Snapshot is a view rendered from those on demand.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Label is one key="value" pair attached to a sample.
type Label struct {
	Key   string
	Value string
}

// Sample is one metric point.
type Sample struct {
	Labels []Label
	Value  int64
}

// Family is all samples of one named metric, with its metadata. Type is
// the Prometheus type name, "counter" or "gauge".
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Snapshot is a point-in-time view of a metric set, renderable as
// Prometheus text.
type Snapshot []Family

// labelEscaper rewrites exactly the characters the Prometheus text
// format defines escapes for — backslash, double-quote and newline.
// Anything else (tabs, control bytes, non-UTF-8) passes through
// verbatim; Go's %q would emit \t and \xNN forms the format does not
// define and standard scrapers reject.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, sm := range f.Samples {
			if len(sm.Labels) == 0 {
				if _, err := fmt.Fprintf(w, "%s %d\n", f.Name, sm.Value); err != nil {
					return err
				}
				continue
			}
			if _, err := io.WriteString(w, f.Name+"{"); err != nil {
				return err
			}
			for i, l := range sm.Labels {
				sep := ","
				if i == 0 {
					sep = ""
				}
				if _, err := fmt.Fprintf(w, "%s%s=\"%s\"", sep, l.Key, labelEscaper.Replace(l.Value)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "} %d\n", sm.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
