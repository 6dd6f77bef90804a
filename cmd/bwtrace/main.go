// Command bwtrace merges per-node flight-recorder dumps from a live
// overlay run into one causal timeline.
//
// Capture dumps with bwnode -trace-out, or scrape /debug/events from each
// node's status server, then:
//
//	bwtrace root.json w1.json w2.json            # print the merged timeline
//	bwtrace -task 7 root.json w1.json            # one task's journey only
//	bwtrace -chrome trace.json root.json w1.json # Perfetto-loadable export
//	bwtrace -verify root.json w1.json            # protocol-conformance replay
//
// Clocks are aligned per link from matched frame send/receive event pairs
// (the trace context every chunk and result frame carries), and the merge
// never orders an event before the peer event that caused it, so the
// printed timeline reads as what actually happened — a result lost to a
// severed link shows as send → sever → replay → ack as linked lines
// across both nodes. -verify replays the merged timeline through the
// protocol core (internal/trace's Replay), as the simulator's streams are;
// it needs every node's whole history, so it refuses a dump whose ring
// dropped events (size the ring with bwnode -recorder).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bwcs/live"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bwtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bwtrace", flag.ContinueOnError)
	var (
		chromeOut = fs.String("chrome", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
		verify    = fs.Bool("verify", false, "replay the merged timeline through the protocol-conformance checker")
		task      = fs.Uint64("task", 0, "print only the named task's journey (plus its recovery context)")
		quiet     = fs.Bool("q", false, "suppress the timeline listing (useful with -chrome or -verify)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("usage: bwtrace [-chrome out.json] [-verify] [-task id] dump.json...")
	}

	dumps := make(map[string]live.TraceDump, len(paths))
	for _, p := range paths {
		d, err := loadDump(p)
		if err != nil {
			return err
		}
		if prev, dup := dumps[d.Node]; dup {
			return fmt.Errorf("two dumps for node %q (%d and %d events)", d.Node, len(prev.Events), len(d.Events))
		}
		if *verify && d.Dropped > 0 {
			return fmt.Errorf("%s: -verify needs node %q's whole history, and its ring dropped the first %d events (raise bwnode's -recorder)", p, d.Node, d.Dropped)
		}
		dumps[d.Node] = d
	}
	merged := mergeDumps(dumps)

	if !*quiet {
		printTimeline(os.Stdout, merged, *task)
	}
	if *chromeOut != "" {
		f, err := os.Create(*chromeOut)
		if err != nil {
			return err
		}
		if err := writeChrome(f, merged); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bwtrace: wrote %s (load at ui.perfetto.dev)\n", *chromeOut)
	}
	if *verify {
		if err := verifyMerged(merged, dumps); err != nil {
			return fmt.Errorf("conformance: %w", err)
		}
		fmt.Fprintln(os.Stderr, "bwtrace: merged timeline passes the conformance replay")
	}
	return nil
}

// printTimeline lists the merged timeline, one event per line. With a
// task filter, only that task's events print — its journey — plus the
// session and recovery events that shape it (sever, reconnect, revive).
func printTimeline(w *os.File, merged []MergedEvent, task uint64) {
	for _, m := range merged {
		e := m.Ev
		if task != 0 && e.Task != task {
			switch e.Kind {
			case live.EvSever, live.EvReconnect, live.EvRevive, live.EvHello, live.EvHelloAck:
				// Recovery context prints even when filtering.
			default:
				continue
			}
		}
		line := fmt.Sprintf("%12s %-12s %-16s", fmtNS(m.At), m.Node, e.Kind)
		if e.Task != 0 {
			line += fmt.Sprintf(" task=%d", e.Task)
		}
		if e.Origin != "" {
			line += fmt.Sprintf(" origin=%s", e.Origin)
		}
		if e.Peer != "" {
			line += fmt.Sprintf(" peer=%s", e.Peer)
		}
		if e.Off != 0 {
			line += fmt.Sprintf(" off=%d", e.Off)
		}
		if e.Value != 0 {
			line += fmt.Sprintf(" value=%d", e.Value)
		}
		if e.CauseSeq != 0 {
			line += fmt.Sprintf("  <- %s#%d", e.Peer, e.CauseSeq)
		}
		fmt.Fprintln(w, line)
	}
}

// fmtNS renders an aligned timestamp relative to the merge origin.
func fmtNS(ns int64) string {
	return fmt.Sprintf("%+.6fms", float64(ns)/float64(time.Millisecond))
}
