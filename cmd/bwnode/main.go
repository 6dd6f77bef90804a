// Command bwnode runs one node of a live bandwidth-centric scheduling
// overlay as an OS process — the deployable form of the paper's
// future-work prototype.
//
// Start a root that will dispatch 1000 synthetic tasks of 64 KiB each and
// print per-node statistics when done:
//
//	bwnode -name root -listen 127.0.0.1:7000 -tasks 1000 -size 65536
//
// Join workers to it (from any machine that can reach the root):
//
//	bwnode -name w1 -parent 127.0.0.1:7000 -compute-ms 5
//	bwnode -name w2 -parent 127.0.0.1:7000 -listen 127.0.0.1:7001 -compute-ms 2
//	bwnode -name w3 -parent 127.0.0.1:7001 -compute-ms 2     # deeper in the tree
//
// Workers may join while the application runs; the protocol folds them in
// with no coordination beyond their own requests. Links are supervised by
// heartbeats, a worker that loses its parent re-dials with capped
// exponential backoff, and a parent requeues a dead subtree's tasks for
// re-execution — so killing a worker mid-run costs throughput, not the
// run. The synthetic "compute" hashes the payload repeatedly for the
// configured duration, standing in for a real independent-task
// application.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"bwcs/live"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bwnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bwnode", flag.ContinueOnError)
	var (
		name      = fs.String("name", "", "node name (required)")
		listen    = fs.String("listen", "", "address to accept children on (empty = leaf)")
		parent    = fs.String("parent", "", "parent address (empty = root)")
		buffers   = fs.Int("buffers", 0, "task buffers per node, the paper's FB (0 keeps the node's default)")
		nonIC     = fs.Bool("non-interruptible", false, "disable send preemption (non-IC variant)")
		chunk     = fs.Int("chunk", 0, "bytes per transfer chunk (0 keeps the node's default)")
		computeMS = fs.Int("compute-ms", 10, "synthetic compute time per task, milliseconds")
		tasks     = fs.Int("tasks", 0, "root only: number of tasks to dispatch")
		size      = fs.Int("size", 4096, "root only: task payload bytes")
		timeout   = fs.Duration("timeout", 10*time.Minute, "root only: run deadline")
		status    = fs.String("status", "", "serve /status (JSON), /debug/events (flight recorder), /timeline (sampled telemetry) and /debug/pprof at this address (e.g. 127.0.0.1:8080)")
		traceOut  = fs.String("trace-out", "", "write the node's flight-recorder dump (JSON) to this file on exit; merge dumps with bwtrace")
		recorder  = fs.Int("recorder", 0, "flight-recorder ring capacity in events (0 keeps the node's default, negative disables)")
		timeline  = fs.Duration("timeline", 0, "telemetry sampling interval for /timeline (0 keeps the node's default, negative disables)")

		heartbeat = fs.Duration("heartbeat", 0, "per-link heartbeat interval (0 keeps the node's default, negative disables supervision)")
		hbMisses  = fs.Int("heartbeat-misses", 0, "consecutive silent intervals before a link is severed (0 keeps the node's default)")
		reBase    = fs.Duration("reconnect-base", 0, "first reconnect backoff delay (0 keeps the node's default)")
		reCap     = fs.Duration("reconnect-cap", 0, "reconnect backoff ceiling (0 keeps the node's default)")
		reTries   = fs.Int("reconnect-attempts", 0, "parent re-dials before giving up (0 keeps the node's default, negative disables reconnection)")
		grace     = fs.Duration("grace", 0, "how long a dead child stays revivable before its tasks requeue (0 keeps the node's default, negative requeues at once)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	if *parent == "" && *tasks <= 0 {
		return fmt.Errorf("a root needs -tasks")
	}
	if *size < 0 {
		return fmt.Errorf("-size %d < 0", *size)
	}
	if *computeMS < 0 {
		return fmt.Errorf("-compute-ms %d < 0", *computeMS)
	}
	if *timeout <= 0 {
		return fmt.Errorf("-timeout %v <= 0", *timeout)
	}

	opts := []live.Option{
		live.WithListen(*listen),
		live.WithParent(*parent),
		live.WithBuffers(*buffers),
		live.WithChunkSize(*chunk),
		live.WithCompute(hashCompute(time.Duration(*computeMS) * time.Millisecond)),
		live.WithHeartbeat(*heartbeat, *hbMisses),
		live.WithReconnect(*reBase, *reCap, *reTries),
		live.WithReconnectGrace(*grace),
		live.WithRecorderCapacity(*recorder),
		live.WithTimelineInterval(*timeline),
	}
	if *nonIC {
		opts = append(opts, live.NonInterruptible())
	}
	node, err := live.Start(*name, opts...)
	if err != nil {
		return err
	}
	defer node.Close()
	if *traceOut != "" {
		// The dump is written after Close so it holds the complete run,
		// shutdown frames included.
		defer func() {
			_ = node.Close()
			if werr := writeTraceDump(node, *traceOut); werr != nil {
				fmt.Fprintln(os.Stderr, "bwnode:", werr)
			}
		}()
	}
	if *listen != "" {
		fmt.Printf("%s listening on %s\n", *name, node.Addr())
	}
	if *status != "" {
		addr, err := node.ServeStatus(*status)
		if err != nil {
			return err
		}
		fmt.Printf("%s status at http://%s/status, pprof at http://%s/debug/pprof/\n", *name, addr, addr)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	if *parent != "" {
		// Worker: serve until interrupted, the parent winds us down, or
		// the node fails for good (reconnect attempts exhausted).
		fmt.Printf("%s joined parent %s; serving (ctrl-c to leave)\n", *name, *parent)
		var fatal error
		select {
		case <-ctx.Done():
		case <-node.Done():
		case <-node.Failed():
			fatal = node.Err()
		}
		s := node.Stats()
		fmt.Printf("%s leaving: computed %d, forwarded %d, requests %d\n", *name, s.Computed, s.Forwarded, s.Requests)
		printRecovery(*name, s)
		return fatal
	}

	// Root: build the workload, run it, report. Ctrl-c cancels the run;
	// -timeout is the context deadline.
	work := make([]live.Task, *tasks)
	for i := range work {
		payload := make([]byte, *size)
		for j := range payload {
			payload[j] = byte(i * j)
		}
		work[i] = live.Task{ID: uint64(i + 1), Payload: payload}
	}
	runCtx, cancelRun := context.WithTimeout(ctx, *timeout)
	defer cancelRun()
	start := time.Now()
	results, err := node.Run(runCtx, work)
	if err != nil {
		var te *live.TimeoutError
		if errors.As(err, &te) {
			fmt.Printf("timed out with %d of %d results\n", te.Received, te.Expected)
		}
		return err
	}
	elapsed := time.Since(start)
	byOrigin := map[string]int{}
	for _, r := range results {
		byOrigin[r.Origin]++
	}
	fmt.Printf("completed %d tasks in %v (%.1f tasks/s)\n", len(results), elapsed.Round(time.Millisecond),
		float64(len(results))/elapsed.Seconds())
	for origin, count := range byOrigin {
		fmt.Printf("  %-12s %6d tasks\n", origin, count)
	}
	s := node.Stats()
	fmt.Printf("root: computed %d, forwarded %d, interrupts %d\n", s.Computed, s.Forwarded, s.Interrupts)
	printRecovery("root", s)
	return nil
}

// writeTraceDump serializes the node's flight recorder for bwtrace.
func writeTraceDump(node *live.Node, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(node.TraceDump()); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// printRecovery reports the fault-tolerance counters when anything
// actually went wrong (and recovered); a clean run prints nothing.
func printRecovery(name string, s live.Stats) {
	if s.Reconnects+s.Requeued+s.Resumed+s.HeartbeatMisses+s.ResultsReplayed+s.ResultsDeduped == 0 {
		return
	}
	fmt.Printf("%s recovery: reconnects %d, requeued %d (%d on revive), resumed %d, heartbeat misses %d, results replayed %d, deduped %d\n",
		name, s.Reconnects, s.Requeued, s.RequeuedOnRevive, s.Resumed, s.HeartbeatMisses, s.ResultsReplayed, s.ResultsDeduped)
}

// hashCompute burns roughly d of CPU per task by re-hashing the payload,
// returning the final digest — a deterministic stand-in for real work.
func hashCompute(d time.Duration) live.ComputeFunc {
	return func(t live.Task) ([]byte, error) {
		sum := sha256.Sum256(t.Payload)
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			sum = sha256.Sum256(sum[:])
		}
		return sum[:], nil
	}
}
