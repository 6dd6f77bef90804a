package live

import (
	"errors"
	"fmt"
	"time"

	"bwcs/internal/protocol"
)

// config is a node's resolved settings: Start seeds it from defaults and
// each Option folds its argument in, so a field holds the value the node
// runs with. For the durations and counts a machinery can be switched
// off with, 0 means off.
type config struct {
	name     string
	listen   string // address to accept children on; empty for a leaf
	parent   string // the parent's address; empty for the root
	compute  ComputeFunc
	protocol protocol.Protocol // the paper's two choices: interruptible, and FB

	chunkSize int // payload bytes streamed per send-port turn and chunk
	linkDelay func(childName string) time.Duration
	faults    *FaultPlan

	heartbeat         time.Duration // per-link supervision period
	heartbeatMisses   int           // consecutive silent periods that sever a link
	writeTimeout      time.Duration // deadline on each outbound frame
	handshakeTimeout  time.Duration // bound on the hello / hello-ack exchange
	reconnectBase     time.Duration // parent re-dial k sleeps min(base<<(k-1), reconnectCap)
	reconnectCap      time.Duration // the backoff's ceiling
	reconnectAttempts int
	reconnectGrace    time.Duration // how long a dead child's session stays revivable
	resultRetry       time.Duration // unacked age that retransmits a result
	recorderCap       int           // flight-recorder ring capacity in events
	timelineInterval  time.Duration // telemetry sampling cadence

	// sleep is the backoff clock, replaceable by tests: it pauses, and
	// reports false when done closed first.
	sleep func(d time.Duration, done <-chan struct{}) bool
}

// defaults is where every setting's default is assigned: a leaf root
// running the paper's headline protocol, IC with FB=3.
func defaults(name string) config {
	return config{
		name:              name,
		protocol:          protocol.Protocol{Interruptible: true, InitialBuffers: 3},
		chunkSize:         4096,
		heartbeat:         time.Second,
		heartbeatMisses:   3,
		writeTimeout:      10 * time.Second,
		handshakeTimeout:  5 * time.Second,
		reconnectBase:     100 * time.Millisecond,
		reconnectCap:      2 * time.Second,
		reconnectAttempts: 5,
		reconnectGrace:    5 * time.Second,
		resultRetry:       2 * time.Second,
		recorderCap:       8192,
		timelineInterval:  time.Second,
		sleep:             realSleep,
	}
}

// check reports the first setting no node can run with.
func (c *config) check() error {
	switch {
	case c.name == "":
		return errors.New("live: node needs a name")
	case c.compute == nil:
		return errors.New("live: node needs a compute function")
	case c.chunkSize < 1:
		return fmt.Errorf("live: chunk size %d < 1", c.chunkSize)
	case c.heartbeatMisses < 1:
		return fmt.Errorf("live: heartbeat misses %d < 1", c.heartbeatMisses)
	case c.reconnectBase <= 0 || c.reconnectCap <= 0:
		return fmt.Errorf("live: reconnect backoff %v capped at %v is not positive", c.reconnectBase, c.reconnectCap)
	}
	if err := c.protocol.Validate(); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	return nil
}

// orDefault is an option's argument rule for a setting: zero keeps the
// default, any other value replaces it (check rejects one out of range).
func orDefault[T int | time.Duration](arg, def T) T {
	if arg == 0 {
		return def
	}
	return arg
}

// orOff is orDefault for a setting a negative argument switches off.
func orOff[T int | time.Duration](arg, def T) T {
	if arg < 0 {
		return 0
	}
	return orDefault(arg, def)
}

// Option configures a node started with Start. Each option documents its
// default; a node started with no options beyond the required WithCompute
// is a leaf root with the paper's headline parameters.
type Option func(*config)

// WithListen sets the address the node accepts children on; default none
// (the node is a leaf). Use "127.0.0.1:0" to pick a free port (see
// Node.Addr).
func WithListen(addr string) Option {
	return func(c *config) { c.listen = addr }
}

// WithParent sets the parent node's address; default none (the node is
// the root).
func WithParent(addr string) Option {
	return func(c *config) { c.parent = addr }
}

// WithBuffers sets the number of task buffers (the paper's FB); default
// 3, the paper's headline value. Zero keeps the default; a negative
// count makes Start fail.
func WithBuffers(n int) Option {
	return func(c *config) { c.protocol.InitialBuffers = orDefault(n, c.protocol.InitialBuffers) }
}

// WithCompute sets the function that executes tasks; required.
func WithCompute(fn ComputeFunc) Option {
	return func(c *config) { c.compute = fn }
}

// WithChunkSize sets the payload slice streamed per send-port turn;
// default 4096 bytes. Zero keeps the default; a negative size makes
// Start fail.
func WithChunkSize(bytes int) Option {
	return func(c *config) { c.chunkSize = orDefault(bytes, c.chunkSize) }
}

// NonInterruptible disables chunk-level preemption at the send port (the
// paper's non-IC variant); default interruptible.
func NonInterruptible() Option {
	return func(c *config) { c.protocol.Interruptible = false }
}

// WithLinkDelay paces chunks to the named child at one per delay — a
// deterministic stand-in for heterogeneous link bandwidth in tests and
// demos (the measured priorities then reflect it, exactly as they would
// reflect real bandwidth); default none. The send port is serial, so all
// children share one schedule.
func WithLinkDelay(fn func(childName string) time.Duration) Option {
	return func(c *config) { c.linkDelay = fn }
}

// WithHeartbeat sets per-link supervision: each link sends a heartbeat
// every interval, and a link silent inbound for misses consecutive
// intervals is declared dead and severed, triggering recovery (requeue at
// the parent, reconnect at the child). Defaults: interval 1s, misses 3;
// a zero argument keeps its default. A negative interval disables
// heartbeats; a negative misses makes Start fail.
func WithHeartbeat(interval time.Duration, misses int) Option {
	return func(c *config) {
		c.heartbeat = orOff(interval, c.heartbeat)
		c.heartbeatMisses = orDefault(misses, c.heartbeatMisses)
	}
}

// WithReconnect configures the capped exponential backoff a disconnected
// non-root node uses to re-dial its parent: attempt k sleeps
// min(base<<(k-1), cap). Defaults: base 100ms, cap 2s, attempts 5; a
// zero argument keeps its default. A negative base or cap makes Start
// fail; attempts < 0 disables reconnection (a lost parent link is fatal,
// the pre-fault-tolerance behavior).
func WithReconnect(base, cap time.Duration, attempts int) Option {
	return func(c *config) {
		c.reconnectBase = orDefault(base, c.reconnectBase)
		c.reconnectCap = orDefault(cap, c.reconnectCap)
		c.reconnectAttempts = orOff(attempts, c.reconnectAttempts)
	}
}

// WithReconnectGrace sets how long a parent keeps a dead child's session
// (its in-flight transfer and un-returned tasks) revivable before
// reclaiming and requeueing everything for re-dispatch; default 5s.
// Negative reclaims immediately. A child that reconnects within the
// grace window resumes its interrupted transfer from the offset its
// hello offers; one that announced a deliberate departure is
// reclaimed immediately regardless.
func WithReconnectGrace(d time.Duration) Option {
	return func(c *config) { c.reconnectGrace = orOff(d, c.reconnectGrace) }
}

// WithFaultPlan installs a deterministic fault-injection script consulted
// on every frame this node sends or receives; default none. See
// FaultPlan.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *config) { c.faults = p }
}

// WithRecorderCapacity sets the flight recorder's ring capacity in
// events; default 8192, negative disables the recorder entirely. When the
// ring wraps, the oldest events are evicted and counted in
// Stats.RecorderDropped (also on /status), so a
// dump always holds the most recent window. Dumps are served by
// /debug/events and Node.TraceDump.
func WithRecorderCapacity(events int) Option {
	return func(c *config) { c.recorderCap = orOff(events, c.recorderCap) }
}

// WithTimelineInterval sets the telemetry sampling cadence: every
// interval the node records its task and wire byte rates and buffered
// depth into the bounded series /timeline serves (and streams with
// ?follow=1). Default 1s; negative disables sampling (and /timeline
// answers 404).
func WithTimelineInterval(d time.Duration) Option {
	return func(c *config) { c.timelineInterval = orOff(d, c.timelineInterval) }
}
