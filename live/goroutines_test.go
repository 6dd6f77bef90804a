package live

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// detachedGo names the `go` statements allowed outside goTracked, by
// enclosing function and spawned callee, each with the reason it cannot
// go through the node's WaitGroup.
var detachedGo = map[string]string{
	"parentSupervisor: n.Close": "Close waits on the supervisor's own WaitGroup entry, so the supervisor cannot wait for Close; Close is idempotent and returns on its own",
	"WireBench: func literal":   "the codec bench has no Node; its goroutines count on a local WaitGroup that WireBench waits for before it returns",
}

// TestGoroutinesStartTracked keeps every goroutine a Node owns behind
// goTracked, which pairs wg.Add with wg.Done by construction: in
// non-test code of this package a `go` statement outside goTracked must
// be listed in detachedGo, and n.wg is counted nowhere else. A loop
// spawned bare, or one that retires the WaitGroup itself, is the leak
// (or the negative counter) Close would hang or panic on.
func TestGoroutinesStartTracked(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "goTracked" {
				continue
			}
			ast.Inspect(fd.Body, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.GoStmt:
					callee := "func literal"
					if _, lit := node.Call.Fun.(*ast.FuncLit); !lit {
						callee = types.ExprString(node.Call.Fun)
					}
					key := fd.Name.Name + ": " + callee
					if _, ok := detachedGo[key]; !ok {
						t.Errorf("%s: go statement outside goTracked (%s): start it with n.goTracked, or list it in detachedGo with the reason", fset.Position(node.Pos()), key)
					}
					used[key] = true
				case *ast.SelectorExpr:
					if x, ok := node.X.(*ast.SelectorExpr); ok && x.Sel.Name == "wg" && (node.Sel.Name == "Add" || node.Sel.Name == "Done") {
						t.Errorf("%s: %s outside goTracked: the node's WaitGroup is counted there only", fset.Position(node.Pos()), types.ExprString(node))
					}
				}
				return true
			})
		}
	}
	for key := range detachedGo {
		if !used[key] {
			t.Errorf("detachedGo lists %q but no such go statement exists: delete the entry", key)
		}
	}
}

// mutexAllowlist names every sync.Mutex or RWMutex in non-test code of
// this package, as "Type.field", each with the reason it exists. Node
// state has none: one goroutine owns it (ownerLoop).
var mutexAllowlist = map[string]string{
	"conn.wmu":     "serializes one socket's writes among the goroutines that share it (port or uplink writer, heartbeat, hello-ack, farewell); it guards no other state",
	"FaultPlan.mu": "one plan is consulted by every reader and writer of the node's conns, and by the test that scripted it",
}

// TestMutexAllowlist keeps the package's mutexes to the allowlist: a
// sync.Mutex or RWMutex in non-test code must be a struct field listed in
// mutexAllowlist with its reason, and an entry that names no such field
// fails too. A mutex on Node is the lock-sharing design the owner loop
// replaced; it fails here.
func TestMutexAllowlist(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := make(map[string]bool)
	// mutexType is the sync.Mutex or RWMutex selector e names or points
	// to, nil when e is no mutex.
	mutexType := func(e ast.Expr) ast.Expr {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if s := types.ExprString(e); s == "sync.Mutex" || s == "sync.RWMutex" {
			return e
		}
		return nil
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		fields := make(map[ast.Expr]bool) // the mutex types of struct fields
		ast.Inspect(f, func(node ast.Node) bool {
			ts, ok := node.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fd := range st.Fields.List {
				mt := mutexType(fd.Type)
				if mt == nil {
					continue
				}
				fields[mt] = true
				names := []string{types.ExprString(mt)[len("sync."):]} // embedded
				if len(fd.Names) > 0 {
					names = names[:0]
					for _, id := range fd.Names {
						names = append(names, id.Name)
					}
				}
				for _, field := range names {
					key := ts.Name.Name + "." + field
					if _, ok := mutexAllowlist[key]; !ok {
						t.Errorf("%s: mutex %s is not on the allowlist: give its state to the owner, or list it in mutexAllowlist with the reason", fset.Position(fd.Pos()), key)
					}
					used[key] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(node ast.Node) bool {
			if e, ok := node.(*ast.SelectorExpr); ok && mutexType(e) != nil && !fields[e] {
				t.Errorf("%s: %s outside a struct field: mutexes are allowlisted by Type.field", fset.Position(e.Pos()), types.ExprString(e))
			}
			return true
		})
	}
	for key := range mutexAllowlist {
		if !used[key] {
			t.Errorf("mutexAllowlist lists %q but no such field exists: delete the entry", key)
		}
	}
}

// ownerFiles are the owner's step files: its state and the steps that
// change it, with no I/O, clock or channel of their own (TestOwnerIsPure).
var ownerFiles = []string{"owner.go", "ownerport.go"}

// impure names what a step file may not reach for: the packages of I/O and
// concurrency, and the time functions that read or wait on the clock (the
// Time and Duration types stay allowed).
var (
	impureImports = map[string]bool{"net": true, "sync": true, "sync/atomic": true, "runtime": true}
	impureTime    = map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}
)

// TestOwnerIsPure keeps the owner a step function: in its step files no
// import of net, sync, sync/atomic or runtime, no clock reading or waiting
// function of time, and no go statement, channel send, receive, select or
// close. The shell, ownerLoop, does all of that. The one clock read a step
// reaches is through record, whose flight recorder stamps each event at
// its own instant. (A range over a channel is a receive this syntactic
// check cannot see.)
func TestOwnerIsPure(t *testing.T) {
	fset := token.NewFileSet()
	for _, name := range ownerFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); impureImports[path] {
				t.Errorf("%s: step file imports %s", fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(node ast.Node) bool {
			bad := ""
			switch node := node.(type) {
			case *ast.SelectorExpr:
				if x, ok := node.X.(*ast.Ident); ok && x.Name == "time" && impureTime[node.Sel.Name] {
					bad = "time." + node.Sel.Name
				}
			case *ast.GoStmt:
				bad = "go statement"
			case *ast.SendStmt:
				bad = "channel send"
			case *ast.UnaryExpr:
				if node.Op == token.ARROW {
					bad = "channel receive"
				}
			case *ast.SelectStmt:
				bad = "select"
			case *ast.CallExpr:
				if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "close" {
					bad = "close"
				}
			}
			if bad != "" {
				t.Errorf("%s: %s in a step file: the shell does I/O and reads the clock; a step takes now and emits effects", fset.Position(node.Pos()), bad)
			}
			return true
		})
	}
}

// stepRig drives one owner with no goroutine, socket or clock: the test
// plays the shell, the ports and the peers, and renders every effect.
type stepRig struct {
	n         *Node
	up, up2   *conn // the uplink, then the one a reconnect installs
	kid, kid2 *conn // child k's link, then the one it revives on
	sess      *childSession
	status    *statusServer
	slot      chan reply // the reply slot of the Run the script starts
	out       strings.Builder
}

// newStepRig builds a relay named mid, or with root the root.
func newStepRig(root bool) *stepRig {
	cfg := defaults("mid")
	cfg.parent, cfg.chunkSize, cfg.resultRetry, cfg.reconnectGrace = "parent:1", 2, 50*time.Millisecond, 100*time.Millisecond
	if root {
		cfg.name, cfg.parent = "root", ""
	}
	cfg.protocol.InitialBuffers = 2
	r := &stepRig{n: newNode(cfg), status: &statusServer{}, slot: make(chan reply, 1)}
	link := func(peer string) *conn { return &conn{peer: peer} }
	r.up, r.up2, r.kid, r.kid2 = link("parent"), link("parent"), link("k"), link("k")
	return r
}

// run steps in at now, decides, renders the effects and plays the shell's
// part in them: a reply's session is kept for later inputs.
func (r *stepRig) run(now time.Time, in input) {
	r.n.step(now, &in)
	r.n.decide(now)
	fmt.Fprintf(&r.out, "%v %d:", now.Format("05.000"), in.kind)
	if in.kind == inSample {
		fmt.Fprintf(&r.out, " row %+v", r.n.samples.rows[len(r.n.samples.rows)-1])
	}
	for _, e := range r.n.fx {
		fmt.Fprintf(&r.out, " [%s]", renderEffect(&e))
		if e.kind == effReply && e.r.sess != nil {
			r.sess = e.r.sess
		}
	}
	r.out.WriteByte('\n')
	clear(r.n.fx)
	r.n.fx = r.n.fx[:0]
}

func renderEffect(e *effect) string {
	msgs := func(ms []message) string {
		var b strings.Builder
		for _, m := range ms {
			fmt.Fprintf(&b, " %+v", m)
		}
		return b.String()
	}
	switch e.kind {
	case effCompute:
		return fmt.Sprintf("compute %d %q", e.task.ID, e.task.Payload)
	case effPortTurn:
		var b strings.Builder
		for _, w := range e.writes {
			fmt.Fprintf(&b, "write %s restart=%v:%s;", w.s.name, w.restart, msgs(w.msgs))
		}
		return "port " + b.String()
	case effBatch:
		if e.job == nil {
			return "batch nil"
		}
		return fmt.Sprintf("batch %s reqs=%d replays=%d:%s", e.job.c.label(), e.job.reqN, e.job.replays, msgs(e.job.msgs))
	case effReply:
		s := "reply"
		if e.r.sess != nil {
			s += " session " + e.r.sess.name
		}
		if e.r.msg != nil {
			s += msgs([]message{*e.r.msg})
		}
		for _, res := range e.r.results {
			s += fmt.Sprintf(" result %d %q", res.ID, res.Output)
		}
		if e.r.err != nil {
			s += " err " + e.r.err.Error()
		}
		return s + fmt.Sprintf(" status=%v", e.r.status != nil)
	}
	return fmt.Sprintf("%s %v", [...]string{effKick: "kick", effArm: "arm", effServe: "serve"}[e.kind], e.d)
}

// scriptStep is one input of a step-replay script, fed at ms.
type scriptStep struct {
	ms int
	in func(r *stepRig) input
}

// TestOwnerStepReplays feeds scripts of inputs, at scripted times, each to
// two owners built without goroutines or sockets. The first is a relay
// with a parent and one child, through a task relayed and one computed,
// their results, acks and a retransmission, the child's loss, revival and
// reclaim, the uplink's loss and reconnect, a refused handshake, a
// sampling pass, a Run and its abandonment, ServeStatus and Close. The
// second is a root whose Run, computed there and at one child, collects
// its results and completes, with a second Run refused meanwhile. Every input kind the owner steps must appear; each
// script's two rendered effect lists must be byte-identical; and the
// one-owner invariant (checkOneOwner) must hold after every input.
func TestOwnerStepReplays(t *testing.T) {
	t0 := time.Date(2003, 4, 22, 0, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	chunk := func(id uint64, payload string) input {
		return input{kind: inUplink, m: message{Kind: kindChunk, Task: id, Size: len(payload), TraceSeq: id},
			segment: true, t: &inTransfer{id: id, payload: []byte(payload), size: len(payload)}}
	}
	wrote := func(r *stepRig) input { // the port or the writer wrote all it held
		for i := range r.n.turn {
			r.n.turn[i].accepted, r.n.turn[i].took = len(r.n.turn[i].msgs), time.Millisecond
		}
		if j := &r.n.up; j.c != nil {
			j.accepted = len(j.msgs)
		}
		return input{}
	}
	script := []scriptStep{
		{0, func(r *stepRig) input { return input{kind: inHello, m: message{Kind: kindHello, Name: "mid"}} }},
		{1, func(r *stepRig) input {
			return input{kind: inInstalled, c: r.up, m: message{Kind: kindHelloAck, Name: "parent", TraceSeq: 1}}
		}},
		{2, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{3, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{4, func(r *stepRig) input { in := chunk(1, "abcd"); in.c = r.up; return in }},
		{5, func(r *stepRig) input {
			return input{kind: inAdmit, c: r.kid, m: message{Kind: kindHello, Name: "k", N: 1}}
		}},
		{6, func(r *stepRig) input { return input{kind: inAdmitted, s: r.sess, c: r.kid} }},
		{7, func(r *stepRig) input { in := chunk(2, "efgh"); in.c = r.up; return in }},
		{8, func(r *stepRig) input { wrote(r); return input{kind: inTurnDone} }},
		{9, func(r *stepRig) input {
			return input{kind: inComputed, task: Task{ID: 1}, out: []byte("dcba"), took: 3 * time.Millisecond}
		}},
		{10, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{11, func(r *stepRig) input {
			return input{kind: inChild, s: r.sess, c: r.kid, m: message{Kind: kindResult, Task: 2, Origin: "k", Output: []byte("hgfe")}}
		}},
		{12, func(r *stepRig) input { wrote(r); return input{kind: inTurnDone} }},
		{13, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{14, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{15, func(r *stepRig) input {
			return input{kind: inUplink, c: r.up, m: message{Kind: kindResultAck, Acks: []resultKey{{Task: 1, Origin: "mid"}}}}
		}},
		{70, func(r *stepRig) input { return input{kind: inTimer} }}, // task 2's result is unacked past the retry
		{71, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{72, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{73, func(r *stepRig) input {
			return input{kind: inChild, s: r.sess, c: r.kid, m: message{Kind: kindRequest, N: 1}}
		}},
		{74, func(r *stepRig) input { in := chunk(3, "ijkl"); in.c = r.up; return in }},
		{75, func(r *stepRig) input { in := chunk(4, "mnop"); in.c = r.up; return in }},
		{76, func(r *stepRig) input { return input{kind: inHeartbeatMiss, c: r.kid, n: 1} }},
		{77, func(r *stepRig) input { return input{kind: inChildLost, s: r.sess, c: r.kid} }},
		{78, func(r *stepRig) input { wrote(r); return input{kind: inTurnDone} }},
		{80, func(r *stepRig) input {
			return input{kind: inAdmit, c: r.kid2, m: message{Kind: kindHello, Name: "k", N: 1}}
		}},
		{81, func(r *stepRig) input { return input{kind: inAdmitted, s: r.sess, c: r.kid2, err: errFaultSevered} }},
		{200, func(r *stepRig) input { return input{kind: inTimer} }}, // the grace has run out: k is reclaimed
		{201, func(r *stepRig) input { return input{kind: inUplinkLost, c: r.up} }},
		{202, func(r *stepRig) input { return input{kind: inHello, m: message{Kind: kindHello, Name: "mid"}} }},
		{203, func(r *stepRig) input {
			return input{kind: inInstalled, c: r.up2, m: message{Kind: kindHelloAck, Name: "parent", Revived: true}, attempt: 1}
		}},
		{204, func(r *stepRig) input { wrote(r); return input{kind: inPull} }},
		{204, func(r *stepRig) input { return input{kind: inRefused, c: &conn{peerName: "10.0.0.9:4711"}} }},
		{204, func(r *stepRig) input { return input{kind: inSample, bytes: [2]int64{4096, 512}} }},
		{205, func(r *stepRig) input {
			return input{kind: inRun, tasks: []Task{{ID: 100, Payload: []byte("mn")}, {ID: 101}}, reply: r.slot}
		}},
		{205, func(r *stepRig) input { return input{kind: inAbandon, reply: r.slot} }},
		{206, func(r *stepRig) input { return input{kind: inStatus, status: r.status} }},
		{207, func(r *stepRig) input { return input{kind: inHeartbeatMiss, c: r.up2, n: 3, sever: true} }},
		{208, func(r *stepRig) input { return input{kind: inClose} }},
	}
	rootScript := []scriptStep{
		{0, func(r *stepRig) input {
			return input{kind: inRun, tasks: []Task{{ID: 1, Payload: []byte("ab")}, {ID: 2, Payload: []byte("cd")}, {ID: 3}}, reply: r.slot}
		}},
		{1, func(r *stepRig) input { return input{kind: inRun, tasks: []Task{{ID: 9}}} }}, // refused: one Run at a time
		{2, func(r *stepRig) input {
			return input{kind: inAdmit, c: r.kid, m: message{Kind: kindHello, Name: "k", N: 1}}
		}},
		{3, func(r *stepRig) input { return input{kind: inAdmitted, s: r.sess, c: r.kid} }},
		{4, func(r *stepRig) input { wrote(r); return input{kind: inTurnDone} }},
		{5, func(r *stepRig) input {
			return input{kind: inComputed, task: Task{ID: 1}, out: []byte("ba"), took: time.Millisecond}
		}},
		{6, func(r *stepRig) input {
			return input{kind: inChild, s: r.sess, c: r.kid, m: message{Kind: kindResult, Task: 2, Origin: "k", Output: []byte("dc")}}
		}},
		{7, func(r *stepRig) input { return input{kind: inComputed, task: Task{ID: 3}, took: time.Millisecond} }}, // the Run completes
		{8, func(r *stepRig) input { wrote(r); return input{kind: inTurnDone} }},
		{9, func(r *stepRig) input { return input{kind: inClose} }},
	}
	used := map[inputKind]bool{}
	for _, sc := range []struct {
		root   bool
		script []scriptStep
	}{{false, script}, {true, rootScript}} {
		var renders [2]string
		for i := range renders {
			r := newStepRig(sc.root)
			r.n.started = t0
			for _, s := range sc.script {
				in := s.in(r)
				used[in.kind] = true
				r.run(at(s.ms), in)
				checkOneOwner(t, r.n)
			}
			renders[i] = r.out.String()
		}
		if renders[0] != renders[1] {
			t.Fatalf("one script, two effect lists:\n%s\nvs\n%s", renders[0], renders[1])
		}
		if want := `reply result 1 "ba" result 2 "dc" result 3 ""`; sc.root && !strings.Contains(renders[0], want) {
			t.Errorf("the root's Run never replied %q", want)
		}
		t.Logf("effects:\n%s", renders[0])
	}
	for k := inChild; k < inPause; k++ {
		if !used[k] {
			t.Errorf("the scripts never feed input kind %d", k)
		}
	}
}
