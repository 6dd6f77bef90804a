package live

import "time"

// Option configures a node started with Start. Each option documents its
// default; a node started with no options beyond the required WithCompute
// is a leaf root with the paper's headline parameters.
type Option func(*Config)

// WithListen sets the address the node accepts children on; default none
// (the node is a leaf). Use "127.0.0.1:0" to pick a free port (see
// Node.Addr).
func WithListen(addr string) Option {
	return func(c *Config) { c.Listen = addr }
}

// WithParent sets the parent node's address; default none (the node is
// the root).
func WithParent(addr string) Option {
	return func(c *Config) { c.Parent = addr }
}

// WithBuffers sets the number of task buffers (the paper's FB); default
// 3, the paper's headline value.
func WithBuffers(n int) Option {
	return func(c *Config) { c.Buffers = n }
}

// WithCompute sets the function that executes tasks; required.
func WithCompute(fn ComputeFunc) Option {
	return func(c *Config) { c.Compute = fn }
}

// WithChunkSize sets the payload slice streamed per send-port turn;
// default 4096 bytes.
func WithChunkSize(bytes int) Option {
	return func(c *Config) { c.ChunkSize = bytes }
}

// NonInterruptible disables chunk-level preemption at the send port (the
// paper's non-IC variant); default interruptible.
func NonInterruptible() Option {
	return func(c *Config) { c.NonInterruptible = true }
}

// WithLinkDelay paces chunks to the named child at one per delay — a
// deterministic stand-in for heterogeneous link bandwidth in tests and
// demos; default none. The send port is serial, so all children share
// one schedule.
func WithLinkDelay(fn func(childName string) time.Duration) Option {
	return func(c *Config) { c.LinkDelay = fn }
}

// WithHeartbeat sets per-link supervision: each link sends a heartbeat
// every interval, and a link silent inbound for misses consecutive
// intervals is declared dead and severed, triggering recovery (requeue at
// the parent, reconnect at the child). Defaults: interval 1s, misses 3.
// A negative interval disables heartbeats.
func WithHeartbeat(interval time.Duration, misses int) Option {
	return func(c *Config) {
		c.HeartbeatInterval = interval
		c.HeartbeatMisses = misses
	}
}

// WithWriteTimeout bounds every outbound frame by a per-message write
// deadline, replacing unbounded blocking on a stalled peer; default 10s.
// Negative disables the deadline.
func WithWriteTimeout(d time.Duration) Option {
	return func(c *Config) { c.WriteTimeout = d }
}

// WithReconnect configures the capped exponential backoff a disconnected
// non-root node uses to re-dial its parent: attempt k sleeps
// min(base<<(k-1), cap). Defaults: base 100ms, cap 2s, attempts 5.
// attempts < 0 disables reconnection (a lost parent link is fatal, the
// pre-fault-tolerance behavior).
func WithReconnect(base, cap time.Duration, attempts int) Option {
	return func(c *Config) {
		c.ReconnectBase = base
		c.ReconnectCap = cap
		c.ReconnectAttempts = attempts
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
	return func(c *Config) { c.ReconnectGrace = d }
}

// WithResultRetry sets how long a result may sit unacknowledged on a
// live uplink before the ledger retransmits it; default 2s. Negative
// disables retransmission — unacked results then replay only after a
// reconnect. Duplicates either way are suppressed by the parent's
// dedupe, so delivery stays exactly-once.
func WithResultRetry(d time.Duration) Option {
	return func(c *Config) { c.ResultRetry = d }
}

// WithAppWeights sets per-application sharing weights: when tasks of
// several applications sit buffered at once, the node dispatches them by
// weighted round-robin over the applications present, proportional to
// these weights (missing or zero entries weigh 1; default all 1, plain
// round-robin among tenants). A negative weight makes Start fail. Child selection stays purely
// bandwidth-centric — weights decide whose task moves, not where.
func WithAppWeights(weights map[string]int64) Option {
	return func(c *Config) { c.AppWeights = weights }
}

// WithHandshakeTimeout bounds the hello / hello-ack exchange on each
// side of a connection — and so how long a peer that speaks another wire
// version, or none, holds a connection before it is refused; default 5s.
func WithHandshakeTimeout(d time.Duration) Option {
	return func(c *Config) { c.HandshakeTimeout = d }
}

// WithFaultPlan installs a deterministic fault-injection script consulted
// on every frame this node sends or receives; default none. See
// FaultPlan.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *Config) { c.Faults = p }
}

// WithRecorderCapacity sets the flight recorder's ring capacity in
// events; default 8192, negative disables the recorder entirely. When the
// ring wraps, the oldest events are evicted and counted in
// Stats.RecorderDropped (live_recorder_dropped_total on /metrics), so a
// dump always holds the most recent window. Dumps are served by
// /debug/events and Node.TraceDump.
func WithRecorderCapacity(events int) Option {
	return func(c *Config) { c.RecorderCap = events }
}

// WithTimelineInterval sets the telemetry sampling cadence: every
// interval the node records its task and wire byte rates and buffered
// depth into the bounded series /timeline serves (and streams with
// ?follow=1). Default 1s; negative disables sampling.
func WithTimelineInterval(d time.Duration) Option {
	return func(c *Config) { c.TimelineInterval = d }
}

// Start launches a node named name. A root only needs a compute function:
//
//	root, err := live.Start("root",
//		live.WithListen("127.0.0.1:0"),
//		live.WithCompute(fn))
//
// Workers join by address — live.Start("w1", live.WithParent(root.Addr()),
// live.WithCompute(fn)) — and request work autonomously. Defaults are
// documented on each Option.
func Start(name string, opts ...Option) (*Node, error) {
	cfg := Config{Name: name}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Buffers == 0 {
		cfg.Buffers = 3
	}
	return launch(cfg)
}
