package live

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// echoCompute returns the payload reversed, with a fixed artificial
// compute time.
func echoCompute(d time.Duration) ComputeFunc {
	return func(t Task) ([]byte, error) {
		time.Sleep(d)
		out := make([]byte, len(t.Payload))
		for i, b := range t.Payload {
			out[len(out)-1-i] = b
		}
		return out, nil
	}
}

func makeTasks(n, size int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(i + j)
		}
		tasks[i] = Task{ID: uint64(i + 1), Payload: payload}
	}
	return tasks
}

func startNode(t *testing.T, name string, opts ...Option) *Node {
	t.Helper()
	n, err := Start(name, opts...)
	if err != nil {
		t.Fatalf("Start(%s): %v", name, err)
	}
	t.Cleanup(func() {
		dumpOnFailure(t, n)
		n.Close()
	})
	return n
}

// runWithin runs tasks from the root n under a deadline d from now.
func runWithin(n *Node, tasks []Task, d time.Duration) ([]Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return n.Run(ctx, tasks)
}

// dumpOnFailure writes the node's flight-recorder dump — and, when
// timeline sampling is active, its /timeline telemetry dump — when the
// test failed and BWCS_TRACE_DIR names a directory. CI's live-stress job
// sets it and uploads the dumps (plus their bwtrace merges) as an
// artifact, so a stall or protocol regression arrives with its causal
// timeline and rate history attached instead of just a test name.
func dumpOnFailure(t *testing.T, n *Node) {
	dir := os.Getenv("BWCS_TRACE_DIR")
	if dir == "" || !t.Failed() {
		return
	}
	name := strings.NewReplacer("/", "_", " ", "_").Replace(t.Name())
	write := func(path string, v any) {
		b, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(path, b, 0o644)
		}
		if err != nil {
			t.Logf("dump %s: %v", path, err)
			return
		}
		t.Logf("dump written to %s", path)
	}
	write(filepath.Join(dir, name+"-"+n.cfg.name+".json"), n.TraceDump())
	if n.sampler != nil {
		write(filepath.Join(dir, name+"-"+n.cfg.name+"-timeline.json"), n.TimelineDump())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Start("", WithCompute(echoCompute(0)), WithBuffers(1)); err == nil {
		t.Fatalf("nameless node accepted")
	}
	if _, err := Start("x", WithBuffers(1)); err == nil {
		t.Fatalf("compute-less node accepted")
	}
	if _, err := Start("x", WithCompute(echoCompute(0)), func(c *config) { c.protocol.InitialBuffers = 0 }); err == nil {
		t.Fatalf("zero buffers accepted")
	}
	if _, err := Start("x", WithCompute(echoCompute(0)), WithBuffers(1), WithParent("127.0.0.1:1")); err == nil {
		t.Fatalf("unreachable parent accepted")
	}
}

func TestRootAloneComputesEverything(t *testing.T) {
	root := startNode(t, "root", WithBuffers(3), WithCompute(echoCompute(0)))
	tasks := makeTasks(25, 64)
	results, err := runWithin(root, tasks, 10*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.ID != uint64(i+1) || r.Origin != "root" {
			t.Fatalf("result %d = %+v", i, r)
		}
		want := tasks[i].Payload
		for j := range want {
			if r.Output[j] != want[len(want)-1-j] {
				t.Fatalf("result %d payload wrong", i)
			}
		}
	}
	if s := root.Stats(); s.Computed != 25 || s.Forwarded != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRunRejectsNonRootAndDuplicates(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(0)))
	child := startNode(t, "c", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(0)))
	if _, err := runWithin(child, makeTasks(1, 8), time.Second); err == nil {
		t.Fatalf("Run on child accepted")
	}
	dup := []Task{{ID: 7}, {ID: 7}}
	if _, err := runWithin(root, dup, time.Second); err == nil {
		t.Fatalf("duplicate ids accepted")
	}
}

func TestTwoWorkersShareTheLoad(t *testing.T) {
	// Root computes slowly; two children compute fast: the work must
	// spread and every result must come back exactly once.
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(30*time.Millisecond)))
	a := startNode(t, "a", WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(2*time.Millisecond)))
	b := startNode(t, "b", WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(2*time.Millisecond)))

	tasks := makeTasks(60, 256)
	results, err := runWithin(root, tasks, 30*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 60 {
		t.Fatalf("results = %d", len(results))
	}
	sa, sb, sr := a.Stats(), b.Stats(), root.Stats()
	if sa.Computed+sb.Computed+sr.Computed != 60 {
		t.Fatalf("computed split %d/%d/%d", sr.Computed, sa.Computed, sb.Computed)
	}
	if sa.Computed == 0 || sb.Computed == 0 {
		t.Fatalf("a worker was starved: %d/%d", sa.Computed, sb.Computed)
	}
	if sr.Forwarded != sa.Received+sb.Received {
		t.Fatalf("forwarded %d != received %d+%d", sr.Forwarded, sa.Received, sb.Received)
	}
	// Request-driven flow control: no child ever buffered more than FB.
	if sa.MaxQueued > 3 || sb.MaxQueued > 3 {
		t.Fatalf("buffer bound violated: %d / %d", sa.MaxQueued, sb.MaxQueued)
	}
}

func TestBandwidthCentricPriorityOnMeasuredLinks(t *testing.T) {
	// Both children have identical CPUs but "slow"'s link carries a 40x
	// per-chunk delay. The bandwidth-centric port must route most tasks
	// through the fast link.
	delay := func(child string) time.Duration {
		if child == "slow" {
			return 20 * time.Millisecond
		}
		return 500 * time.Microsecond
	}
	root := startNode(t, "root",
		WithListen("127.0.0.1:0"), WithBuffers(3),
		WithCompute(echoCompute(500*time.Millisecond)), // root CPU out of the picture
		WithLinkDelay(delay),
	)
	fast := startNode(t, "fast", WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(time.Millisecond)))
	slow := startNode(t, "slow", WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(time.Millisecond)))

	tasks := makeTasks(40, 128)
	if _, err := runWithin(root, tasks, 30*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sf, ss := fast.Stats().Computed, slow.Stats().Computed
	if sf <= ss {
		t.Fatalf("fast link got %d tasks, slow got %d; bandwidth-centric priority failed", sf, ss)
	}
}

func TestInterruptibleSendsPreempt(t *testing.T) {
	// Large payloads over a slow link with a fast sibling requesting:
	// interruptible mode must record preemptions; non-interruptible none.
	run := func(nonIC bool) (Stats, error) {
		delay := func(child string) time.Duration {
			if child == "slow" {
				return 5 * time.Millisecond
			}
			return 100 * time.Microsecond
		}
		root, err := Start("root",
			WithListen("127.0.0.1:0"), WithBuffers(3),
			WithCompute(echoCompute(time.Second)),
			WithLinkDelay(delay),
			WithChunkSize(512),
			func(c *config) { c.protocol.Interruptible = !nonIC },
		)
		if err != nil {
			return Stats{}, err
		}
		defer root.Close()
		fast, err := Start("fast", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
		if err != nil {
			return Stats{}, err
		}
		defer fast.Close()
		slow, err := Start("slow", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
		if err != nil {
			return Stats{}, err
		}
		defer slow.Close()
		if _, err := runWithin(root, makeTasks(24, 8192), 60*time.Second); err != nil {
			return Stats{}, err
		}
		return root.Stats(), nil
	}
	ic, err := run(false)
	if err != nil {
		t.Fatalf("IC run: %v", err)
	}
	if ic.Interrupts == 0 {
		t.Fatalf("interruptible run recorded no preemptions")
	}
	nic, err := run(true)
	if err != nil {
		t.Fatalf("non-IC run: %v", err)
	}
	if nic.Interrupts != 0 {
		t.Fatalf("non-interruptible run preempted %d times", nic.Interrupts)
	}
}

func TestThreeLevelTree(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(20*time.Millisecond)))
	mid := startNode(t, "mid", WithParent(root.Addr()), WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(20*time.Millisecond)))
	leaf := startNode(t, "leaf", WithParent(mid.Addr()), WithBuffers(3), WithCompute(echoCompute(2*time.Millisecond)))

	results, err := runWithin(root, makeTasks(40, 128), 30*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 40 {
		t.Fatalf("results = %d", len(results))
	}
	if leaf.Stats().Computed == 0 {
		t.Fatalf("leaf never worked; tasks did not flow two hops")
	}
	// Results from the leaf must have been relayed through mid.
	byOrigin := map[string]int{}
	for _, r := range results {
		byOrigin[r.Origin]++
	}
	if byOrigin["leaf"] == 0 {
		t.Fatalf("no results attributed to the leaf: %v", byOrigin)
	}
}

func TestWorkerJoinsMidRun(t *testing.T) {
	// Autonomy: a new worker connects while the application runs and
	// simply starts requesting tasks — no coordination with anyone but
	// its parent.
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(10*time.Millisecond)))
	type outcome struct {
		results []Result
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		rs, err := runWithin(root, makeTasks(80, 64), 60*time.Second)
		done <- outcome{rs, err}
	}()
	time.Sleep(100 * time.Millisecond)
	late := startNode(t, "late", WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(time.Millisecond)))
	out := <-done
	if out.err != nil {
		t.Fatalf("Run: %v", out.err)
	}
	if len(out.results) != 80 {
		t.Fatalf("results = %d", len(out.results))
	}
	if late.Stats().Computed == 0 {
		t.Fatalf("late joiner never computed")
	}
}

func TestWorkerDeathRequeuesTasks(t *testing.T) {
	// A worker dies mid-run; its in-flight tasks must be re-executed so
	// the run still completes.
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(3), WithCompute(echoCompute(5*time.Millisecond)))
	doomed := startNode(t, "doomed", WithParent(root.Addr()), WithBuffers(3), WithCompute(echoCompute(50*time.Millisecond)))
	go func() {
		time.Sleep(150 * time.Millisecond)
		doomed.Close()
	}()
	results, err := runWithin(root, makeTasks(50, 64), 60*time.Second)
	if err != nil {
		t.Fatalf("Run after worker death: %v", err)
	}
	if len(results) != 50 {
		t.Fatalf("results = %d", len(results))
	}
}

func TestComputeErrorSurfaces(t *testing.T) {
	boom := func(t Task) ([]byte, error) {
		if t.ID == 3 {
			return nil, fmt.Errorf("task %d exploded", t.ID)
		}
		return nil, nil
	}
	root := startNode(t, "root", WithBuffers(2), WithCompute(boom))
	_, err := runWithin(root, makeTasks(10, 8), 5*time.Second)
	if err == nil {
		t.Fatalf("compute error not surfaced")
	}

	// The only task fails: no result will ever come, and Run must return
	// the node's error at once rather than wait out its context.
	lone := startNode(t, "lone", WithCompute(boom))
	ran := make(chan error, 1)
	go func() {
		_, err := lone.Run(context.Background(), []Task{{ID: 3}})
		ran <- err
	}()
	select {
	case err := <-ran:
		if err == nil || err != lone.Err() {
			t.Fatalf("Run returned %v, want the node's error %v", err, lone.Err())
		}
	case <-time.After(time.Second):
		t.Fatalf("Run still blocked 1 s after its only task failed (Err: %v)", lone.Err())
	}
}

func TestEmptyPayloadTasks(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(5*time.Millisecond)))
	startNode(t, "w", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(0)))
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = Task{ID: uint64(i + 1)} // zero-length payloads
	}
	results, err := runWithin(root, tasks, 20*time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != 20 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !bytes.Equal(r.Output, []byte{}) && r.Output != nil {
			t.Fatalf("unexpected output %v", r.Output)
		}
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	root := startNode(t, "root", WithBuffers(1), WithCompute(echoCompute(0)))
	if err := root.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := root.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestStatusEndpoint(t *testing.T) {
	root := startNode(t, "root", WithListen("127.0.0.1:0"), WithBuffers(2), WithCompute(echoCompute(2*time.Millisecond)))
	w := startNode(t, "w", WithParent(root.Addr()), WithBuffers(2), WithCompute(echoCompute(time.Millisecond)))
	_ = w
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	// Second endpoint on the same node is rejected.
	if _, err := root.ServeStatus("127.0.0.1:0"); err == nil {
		t.Fatalf("duplicate status endpoint accepted")
	}
	if _, err := runWithin(root, makeTasks(20, 64), 20*time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var snap statusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Name != "root" || !snap.Root {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Children) != 1 || snap.Children[0] != "w" {
		t.Fatalf("children = %v", snap.Children)
	}
	if snap.Stats.Computed+snap.Stats.Forwarded != 20 {
		t.Fatalf("stats = %+v", snap.Stats)
	}
	if _, ok := snap.Links["w"]; !ok {
		t.Fatalf("no measured link for w: %v", snap.Links)
	}
}

func TestStatusClosedWithNode(t *testing.T) {
	root, err := Start("r", WithBuffers(1), WithCompute(echoCompute(0)))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr, err := root.ServeStatus("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeStatus: %v", err)
	}
	root.Close()
	if _, err := http.Get("http://" + addr + "/status"); err == nil {
		t.Fatalf("endpoint alive after node Close")
	}
}

func TestStatusBadAddress(t *testing.T) {
	root := startNode(t, "r", WithBuffers(1), WithCompute(echoCompute(0)))
	if _, err := root.ServeStatus("256.0.0.1:99999"); err == nil {
		t.Fatalf("bad address accepted")
	}
}
