package main

import (
	"strings"
	"testing"
	"time"

	"bwcs/live"
)

func TestFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatalf("nameless node accepted")
	}
	if err := run([]string{"-name", "root"}); err == nil {
		t.Fatalf("root without -tasks accepted")
	}
	// Rejected before the node starts: a negative size used to panic in
	// the workload's make, a negative compute time ran as 0 ms, and a root
	// with no time to run started anyway and timed out with no results.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-name", "r", "-tasks", "3", "-size", "-1"}, "-size -1 < 0"},
		{[]string{"-name", "w", "-parent", "127.0.0.1:1", "-compute-ms", "-5"}, "-compute-ms -5 < 0"},
		{[]string{"-name", "r", "-tasks", "3", "-timeout", "0"}, "-timeout 0s <= 0"},
		{[]string{"-name", "r", "-tasks", "3", "-timeout", "-1s"}, "-timeout -1s <= 0"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRootRunsAloneAndWithWorker(t *testing.T) {
	// Drive the root through run() while a library worker joins it, so
	// the CLI path and the wire protocol are both exercised.
	done := make(chan error, 1)
	addrCh := make(chan string, 1)
	go func() {
		addrCh <- "127.0.0.1:39907"
		done <- run([]string{
			"-name", "root", "-listen", "127.0.0.1:39907",
			"-tasks", "40", "-size", "512", "-compute-ms", "25",
			"-timeout", "60s",
		})
	}()
	addr := <-addrCh
	// Join a worker while the root grinds through its tasks. If the root
	// happens to finish first (slow CI machine ordering), the CLI path is
	// still exercised; only skip the worker assertions then.
	var worker *live.Node
	for i := 0; i < 100; i++ {
		w, err := live.Start("w", live.WithParent(addr), live.WithBuffers(2),
			live.WithCompute(func(t live.Task) ([]byte, error) { return nil, nil }))
		if err == nil {
			worker = w
			break
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("root run: %v", err)
			}
			t.Log("root finished before the worker connected; CLI path still verified")
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	if worker == nil {
		t.Fatalf("worker never connected")
	}
	defer worker.Close()
	if err := <-done; err != nil {
		t.Fatalf("root run: %v", err)
	}
	if got := worker.Stats().Computed; got == 0 {
		t.Fatalf("connected worker computed nothing over a 1s run")
	}
}

func TestHashComputeBurnsAndReturnsDigest(t *testing.T) {
	fn := hashCompute(time.Millisecond)
	out, err := fn(live.Task{ID: 1, Payload: []byte("data")})
	if err != nil {
		t.Fatalf("hashCompute: %v", err)
	}
	if len(out) != 32 {
		t.Fatalf("digest length %d", len(out))
	}
	// Deterministic? No — it hashes until a deadline, so the number of
	// rounds varies. Only shape is asserted.
}
