package trace_test

// Protocol-conformance tests: replay a recorded event stream through the
// protocol core and hold every recorded decision to the core's.

import (
	"strings"
	"testing"

	"bwcs/internal/engine"
	"bwcs/internal/optimal"
	"bwcs/internal/protocol"
	"bwcs/internal/randtree"
	"bwcs/internal/rational"
	"bwcs/internal/sim"
	"bwcs/internal/trace"
	"bwcs/internal/tree"
	"bwcs/internal/window"
)

// variants is the replay's protocol matrix: the three orders with a
// priority under IC FB=1, IC FB=3, non-IC IB=1 and non-IC FB=2, the two
// without one under non-IC IB=1 and FB=2, and growth with decay.
func variants() []protocol.Protocol {
	var ps []protocol.Protocol
	for _, o := range []protocol.Order{protocol.BandwidthCentric, protocol.ComputeCentric, protocol.FCFS} {
		for _, p := range []protocol.Protocol{protocol.Interruptible(1), protocol.Interruptible(3), protocol.NonInterruptible(1), protocol.NonInterruptibleFixed(2)} {
			ps = append(ps, p.WithOrder(o))
		}
	}
	for _, o := range []protocol.Order{protocol.Random, protocol.RoundRobin} {
		ps = append(ps, protocol.NonInterruptible(1).WithOrder(o), protocol.NonInterruptibleFixed(2).WithOrder(o))
	}
	return append(ps, protocol.NonInterruptible(1).WithDecay())
}

// matrixParams are the random platforms the matrix runs on.
var matrixParams = randtree.Params{MinNodes: 5, MaxNodes: 60, MinComm: 1, MaxComm: 40, Comp: 800}

// record runs cfg with a recorder attached.
func record(t testing.TB, cfg engine.Config) (*engine.Result, []trace.Event) {
	t.Helper()
	rec := &trace.Recorder{}
	cfg.Tracer = rec.Add
	res, err := engine.Run(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Protocol, err)
	}
	return res, rec.Events()
}

// replayDecided replays the engine's stream of cfg in decide mode, drain
// checked.
func replayDecided(t testing.TB, cfg engine.Config) *trace.Replay {
	t.Helper()
	_, events := record(t, cfg)
	rp := &trace.Replay{Tree: cfg.Tree, Protocol: cfg.Protocol, Tasks: cfg.Tasks, Seed: cfg.Seed, CheckPriority: true, CheckDrain: true}
	if err := rp.Run(events); err != nil {
		t.Fatalf("%v: %v", cfg.Protocol, err)
	}
	return rp
}

// TestBandwidthCentricServiceOrder replays IC FB=3 runs on random
// platforms through the exported Replay with every check enabled: every
// compute and send start is the core's decision — the fresh sends serve
// the serviceable child with the smallest communication time, the
// paper's bandwidth-centric rule — every request is owed, and the run
// drains.
func TestBandwidthCentricServiceOrder(t *testing.T) {
	params := randtree.Params{MinNodes: 5, MaxNodes: 50, MinComm: 1, MaxComm: 40, Comp: 600}
	const tasks = 600
	for ti := 0; ti < 6; ti++ {
		tr := randtree.TreeAt(params, 555, ti)
		rec := &trace.Recorder{}
		if _, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.Interruptible(3), Tasks: tasks, Tracer: rec.Add}); err != nil {
			t.Fatalf("tree %d: %v", ti, err)
		}
		rp := &trace.Replay{Tree: tr, Tasks: tasks, Protocol: protocol.Interruptible(3), CheckPriority: true, CheckDrain: true}
		if err := rp.Run(rec.Events()); err != nil {
			t.Fatalf("tree %d: %v", ti, err)
		}
		if rp.Fresh == 0 {
			t.Fatalf("tree %d: no sends at all", ti)
		}
	}
}

// TestReplayMatchesEveryProtocol replays 20 random platforms under every
// protocol of the matrix in decide mode: the engine's every decision is
// its core's, in the order the core made it, Random's draws included.
func TestReplayMatchesEveryProtocol(t *testing.T) {
	for _, p := range variants() {
		fresh := 0
		for ti := 0; ti < 20; ti++ {
			rp := replayDecided(t, engine.Config{Tree: randtree.TreeAt(matrixParams, 36, ti), Protocol: p, Tasks: 800, Seed: uint64(ti)})
			fresh += rp.Fresh
		}
		if fresh == 0 {
			t.Fatalf("%v: no fresh sends replayed", p)
		}
	}
}

// FuzzEngineStreamReplays runs the engine on a random platform under one
// protocol of the matrix and requires its stream to pass the decide-mode
// replay.
func FuzzEngineStreamReplays(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0))
	f.Add(uint64(7), uint16(3), uint8(12))
	f.Add(uint64(9), uint16(5), uint8(16))
	ps := variants()
	f.Fuzz(func(t *testing.T, seed uint64, index uint16, pi uint8) {
		replayDecided(t, engine.Config{Tree: randtree.TreeAt(matrixParams, seed, int(index)), Protocol: ps[int(pi)%len(ps)], Tasks: 300, Seed: seed})
	})
}

// TestReplayRejectsViolations pins that the replay actually fails on
// non-conforming streams, so a green conformance run means something. A
// row names the mode it is meant for and what the replay must say.
func TestReplayRejectsViolations(t *testing.T) {
	tr := tree.New(1)
	slow := tr.AddChild(tr.Root(), 1, 10)
	fast := tr.AddChild(tr.Root(), 1, 1)
	grand := tr.AddChild(slow, 1, 1)
	root := tr.Root()
	cases := []struct {
		name   string
		decide bool
		tasks  int64
		want   string
		events []trace.Event
	}{
		{"send without request", false, 2, "unserviceable", []trace.Event{
			{Kind: trace.SendStart, Node: root, Peer: fast},
		}},
		{"send over faster sibling", true, 2, "owed", []trace.Event{
			{Kind: trace.Request, Node: slow}, {Kind: trace.Request, Node: fast},
			{Kind: trace.SendStart, Node: root, Peer: slow},
		}},
		{"double send in flight", false, 2, "unserviceable", []trace.Event{
			{Kind: trace.Request, Node: fast}, {Kind: trace.Request, Node: fast},
			{Kind: trace.SendStart, Node: root, Peer: fast},
			{Kind: trace.SendStart, Node: root, Peer: fast},
		}},
		{"resume with nothing in flight", false, 2, "without a transfer", []trace.Event{
			{Kind: trace.SendResume, Node: root, Peer: fast},
		}},
		{"compute without a task", false, 2, "without a task", []trace.Event{
			{Kind: trace.ComputeStart, Node: fast},
		}},
		{"undrained pool", false, 2, "ends holding 2 tasks", []trace.Event{}},
		// With the startup requests derived, the slow child's send is not
		// the core's first decision.
		{"slow child served first", true, 2, "decides child 2", []trace.Event{
			{Kind: trace.SendStart, Node: root, Peer: slow},
		}},
		// What the replay accepted while it restated the rules.
		{"root sends to a grandchild", false, 1, "not its child", []trace.Event{
			{Kind: trace.Request, Node: grand}, {Kind: trace.SendStart, Node: root, Peer: grand},
			{Kind: trace.SendDone, Node: root, Peer: grand},
			{Kind: trace.ComputeStart, Node: grand}, {Kind: trace.ComputeDone, Node: grand},
		}},
		{"relay requests with no freed buffer", true, 0, "owed", []trace.Event{
			{Kind: trace.Request, Node: slow}, {Kind: trace.Request, Node: slow},
			{Kind: trace.Request, Node: slow}, {Kind: trace.Request, Node: slow},
		}},
		{"compute done while idle", true, 0, "never started", []trace.Event{
			{Kind: trace.ComputeDone, Node: fast},
		}},
	}
	for _, tc := range cases {
		rp := &trace.Replay{Tree: tr, Protocol: protocol.Interruptible(1), Tasks: tc.tasks, CheckPriority: tc.decide, CheckDrain: true}
		if err := rp.Run(tc.events); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: replay says %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// And the recovery path: a requeue returns the task, re-legalizing a
	// second dispatch of it.
	rp := &trace.Replay{Tree: tr, Tasks: 1}
	ok := []trace.Event{
		{Kind: trace.Request, Node: fast}, {Kind: trace.Request, Node: fast},
		{Kind: trace.SendStart, Node: root, Peer: fast},
		{Kind: trace.Requeue, Node: root, Peer: fast},
		{Kind: trace.SendStart, Node: root, Peer: fast},
	}
	if err := rp.Run(ok); err != nil {
		t.Errorf("requeue replay: %v", err)
	}
}

// TestEngineStreamScalesWithWeights is a metamorphic property of the
// model: multiplying every w and c by k multiplies every time by k and
// changes nothing else. The stream keeps every kind, node, peer and
// position, with every At (and every time-valued Value) multiplied by k;
// the makespan is multiplied by k, the optimal rate divided by k, and the
// onset window is unchanged.
func TestEngineStreamScalesWithWeights(t *testing.T) {
	for _, p := range variants() {
		for ti := 0; ti < 20; ti++ {
			tr := randtree.TreeAt(matrixParams, 36, ti)
			cfg := engine.Config{Tree: tr, Protocol: p, Tasks: 800, Seed: uint64(ti)}
			res, events := record(t, cfg)
			opt := optimal.Compute(tr)
			onset, reached := onsetOf(t, res, opt)
			for _, k := range []int64{2, 3, 7} {
				cfg.Tree = scaled(tr, k)
				kres, kevents := record(t, cfg)
				kopt := optimal.Compute(cfg.Tree)
				if len(kevents) != len(events) {
					t.Fatalf("%v tree %d ×%d: %d events, unscaled %d", p, ti, k, len(kevents), len(events))
				}
				for i, e := range events {
					want := e
					want.At *= sim.Time(k)
					switch e.Kind {
					case trace.ComputeStart, trace.SendStart, trace.SendResume, trace.SendInterrupt:
						want.Value *= k
					}
					if kevents[i] != want {
						t.Fatalf("%v tree %d ×%d: event %d is %s, want %s", p, ti, k, i, kevents[i], want)
					}
				}
				if kres.Makespan != res.Makespan*sim.Time(k) {
					t.Errorf("%v tree %d ×%d: makespan %d, unscaled %d", p, ti, k, kres.Makespan, res.Makespan)
				}
				if !kopt.Rate.Equal(opt.Rate.Div(rational.FromInt(k))) {
					t.Errorf("%v tree %d ×%d: optimal rate %s, unscaled %s", p, ti, k, kopt.Rate, opt.Rate)
				}
				if o, r := onsetOf(t, kres, kopt); o != onset || r != reached {
					t.Errorf("%v tree %d ×%d: onset (%d, %v), unscaled (%d, %v)", p, ti, k, o, r, onset, reached)
				}
			}
		}
	}
}

// scaled returns a copy of tr with every w and c multiplied by k.
func scaled(tr *tree.Tree, k int64) *tree.Tree {
	s := tr.Clone()
	for id := tree.NodeID(0); int(id) < s.Len(); id++ {
		s.SetW(id, k*tr.W(id))
		if id != s.Root() {
			s.SetC(id, k*tr.C(id))
		}
	}
	return s
}

// onsetOf is the run's steady-state onset window under the paper's
// criterion.
func onsetOf(t *testing.T, res *engine.Result, opt *optimal.Allocation) (int, bool) {
	t.Helper()
	series, err := window.New(res.Completions, opt.TreeWeight)
	if err != nil {
		t.Fatal(err)
	}
	return series.Onset(window.DefaultThreshold)
}

// TestGrowthEventsOnlyUnderGrowthProtocol: fixed-buffer protocols must
// never emit Grow events; the growth protocol's Grow events must raise
// capacity monotonically from the initial pool.
func TestGrowthEventsOnlyUnderGrowthProtocol(t *testing.T) {
	tr := randtree.TreeAt(randtree.Params{MinNodes: 10, MaxNodes: 30, MinComm: 1, MaxComm: 30, Comp: 900}, 3, 0)
	for _, p := range []protocol.Protocol{protocol.Interruptible(3), protocol.NonInterruptibleFixed(2)} {
		rec := &trace.Recorder{}
		if _, err := engine.Run(engine.Config{Tree: tr, Protocol: p, Tasks: 300, Tracer: rec.Add}); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got := kindCounts(rec)[trace.Grow]; got != 0 {
			t.Fatalf("%v emitted %d grow events", p, got)
		}
	}
	rec := &trace.Recorder{}
	if _, err := engine.Run(engine.Config{Tree: tr, Protocol: protocol.NonInterruptible(1), Tasks: 300, Tracer: rec.Add}); err != nil {
		t.Fatalf("non-IC: %v", err)
	}
	last := map[tree.NodeID]int64{}
	for _, e := range rec.Events() {
		if e.Kind != trace.Grow {
			continue
		}
		if e.Value != last[e.Node]+1 && last[e.Node] != 0 {
			t.Fatalf("node %d capacity jumped %d -> %d", e.Node, last[e.Node], e.Value)
		}
		last[e.Node] = e.Value
	}
}
