// Fixture for the lockdiscipline analyzer: blocking operations under a
// held mutex are flagged; the non-blocking select-with-default wake
// pattern, sends after release, and goroutine bodies pass.
package lock

import (
	"sync"
	"time"
)

type node struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	wg sync.WaitGroup
}

func sendHeld(n *node) {
	n.mu.Lock()
	n.ch <- 1 // want "channel send while holding n.mu"
	n.mu.Unlock()
	n.ch <- 2 // ok: released above
}

func recvHeldDeferred(n *node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want "channel receive while holding n.mu"
}

func rlockHeld(n *node) int {
	n.rw.RLock()
	defer n.rw.RUnlock()
	return <-n.ch // want "channel receive while holding n.rw"
}

func blockingSelect(n *node) {
	n.mu.Lock()
	select { // want "blocking select while holding n.mu"
	case v := <-n.ch:
		_ = v
	}
	n.mu.Unlock()
}

func nonBlockingWake(n *node) {
	n.mu.Lock()
	select { // ok: default clause makes the send non-blocking
	case n.ch <- 1:
	default:
	}
	n.mu.Unlock()
}

func waitHeld(n *node) {
	n.mu.Lock()
	n.wg.Wait() // want "sync.WaitGroup.Wait while holding n.mu"
	n.mu.Unlock()
}

func sleepHeld(n *node) {
	n.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding n.mu"
	n.mu.Unlock()
}

// fakeConn carries net.Conn's method-set fingerprint; the analyzer
// recognizes it structurally without importing net.
type fakeConn struct{}

func (fakeConn) Read(p []byte) (int, error)    { return 0, nil }
func (fakeConn) Write(p []byte) (int, error)   { return 0, nil }
func (fakeConn) Close() error                  { return nil }
func (fakeConn) LocalAddr() string             { return "" }
func (fakeConn) RemoteAddr() string            { return "" }
func (fakeConn) SetDeadline(t time.Time) error { return nil }

func connWriteHeld(n *node, c fakeConn) {
	n.mu.Lock()
	_, _ = c.Write(nil) // want "net.Conn.Write while holding n.mu"
	n.mu.Unlock()
}

func branchRelease(n *node, cond bool) {
	n.mu.Lock()
	if cond {
		n.mu.Unlock()
		n.ch <- 1 // ok: released on this path
		return
	}
	n.mu.Unlock()
}

func goroutineBody(n *node) {
	n.mu.Lock()
	go func() {
		n.ch <- 1 // ok: runs without this function's locks
	}()
	n.mu.Unlock()
}
