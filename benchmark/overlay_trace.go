package main

import (
	"fmt"
	"math"

	"bwcs/internal/engine"
	"bwcs/internal/protocol"
	"bwcs/internal/tree"
	"bwcs/live"
)

// traceOverlay produces the overlay's per-layer ledger: one phase with
// the recorder off (counter and host deltas, and the rate the traced
// phase is compared with), one with the recorder on (spans and latencies
// read off each node's event log afterwards), then the wire, link and
// Run-size probes.
func traceOverlay(name string, spec overlaySpec, e env) (*outcome, error) {
	out := newOutcome()
	lm := out.metrics
	lm["host.sleep_overshoot_us"] = sleepOvershootUS()
	const tracedRuns = 2 // bounds the recorder's memory and the span file

	o, err := startWarm(spec, e.seed, -1)
	if err != nil {
		return nil, err
	}
	host := startHostProbe()
	pu := o.measure(e.seconds/2, math.MaxInt, out)
	tasks := float64(pu.tasks)
	host.stop(lm, tasks)
	o.close()
	lm["live.node.frames_per_task"] = float64(pu.d.frames) / tasks
	lm["live.node.wire_bytes_per_payload_byte"] = float64(pu.d.bytes) / (tasks * float64(spec.payload))
	lm["live.node.requests_per_task"] = float64(pu.d.requests) / tasks
	lm["live.node.result_acks_per_task"] = float64(pu.d.resultAcks) / tasks
	lm["live.node.interrupts_per_task"] = float64(pu.d.interrupts) / tasks
	lm["live.node.allocs_per_task"] = float64(pu.mallocs) / tasks
	if spec.step > 0 {
		lm["live.node.split_l1_vs_engine"], err = splitVsEngine(spec, pu)
		if err != nil {
			return nil, err
		}
	}

	// About a dozen events per task on the busiest node; 32 leaves room.
	o, err = startWarm(spec, e.seed, 32*spec.tasks*(spec.warmRuns+tracedRuns))
	if err != nil {
		return nil, err
	}
	pt := o.measure(e.seconds/2, tracedRuns, out)
	tr := newTracer()
	eventLedger(o, tr, lm)
	o.close()
	if pt.d.dropped > 0 {
		out.fail(pt.d.dropped, "flight recorder dropped %d events: latencies are from a truncated log", pt.d.dropped)
	}
	lm["trace.overhead_frac"] = 1 - median(pu.m.wall)/median(pt.m.wall)

	if err := probeWire(e.tiny, lm); err != nil {
		return nil, err
	}
	if spec.step == 0 {
		if err := probeLink(e, lm); err != nil {
			return nil, err
		}
		if spec.runSizeProbe {
			if err := probeRunSize(spec, e, lm); err != nil {
				return nil, err
			}
		}
	}
	return out, tr.write(e.outDir, name, e.seed)
}

// eventLedger reads every node's flight recorder after the traced phase
// and turns matched event pairs into spans and latency metrics. A pair is
// always two events of one node, so no cross-node clock enters.
func eventLedger(o *overlay, tr *tracer, lm map[string]float64) {
	var rtt, gap, queue, resAck []float64
	us := func(from, to int64) float64 { return float64(to-from) / 1e3 }
	runOf := func(task uint64) int { return int((task - 1) / uint64(len(o.tasks))) }
	warm := func(ev live.Event) bool { return ev.Task == 0 || runOf(ev.Task) < o.spec.warmRuns }

	// Root: dispatch → collect is the task's round trip, dispatch → final
	// chunk ack its transfer; a link's gap is final ack → next dispatch to
	// the same child within one Run, i.e. send port idle with work pending.
	root := nodeName(0)
	sent := map[uint64]live.Event{}
	span := map[uint64]int32{}
	lastAck := map[string]live.Event{}
	for _, ev := range o.nodes[0].Events() {
		if warm(ev) {
			continue
		}
		switch ev.Kind {
		case live.EvChunkSend:
			sent[ev.Task] = ev
			if ack, ok := lastAck[ev.Peer]; ok && runOf(ack.Task) == runOf(ev.Task) {
				gap = append(gap, us(ack.At, ev.At))
			}
		case live.EvChunkAck:
			lastAck[ev.Peer] = ev
			if s, ok := sent[ev.Task]; ok {
				// The parent "task" span is added at collect; remember the transfer.
				span[ev.Task] = tr.add("live.transfer", root, 0, ev.Task, s.At, ev.At)
			}
		case live.EvResultCollect:
			if s, ok := sent[ev.Task]; ok {
				rtt = append(rtt, us(s.At, ev.At))
				id := tr.add("live.task", root, 0, ev.Task, s.At, ev.At)
				if child, ok := span[ev.Task]; ok {
					tr.spans[child-1].Parent = id
				}
			}
		}
	}

	// Other nodes: received → compute start is queueing behind the compute
	// port, result send → ack the result path's round trip to the parent.
	for i, n := range o.nodes[1:] {
		node := nodeName(tree.NodeID(i + 1))
		received, started, resSent := map[uint64]int64{}, map[uint64]int64{}, map[uint64]int64{}
		for _, ev := range n.Events() {
			if warm(ev) {
				continue
			}
			switch ev.Kind {
			case live.EvTaskReceived:
				received[ev.Task] = ev.At
			case live.EvComputeStart:
				started[ev.Task] = ev.At
				if at, ok := received[ev.Task]; ok {
					queue = append(queue, us(at, ev.At))
					tr.add("live.queue", node, 0, ev.Task, at, ev.At)
				}
			case live.EvComputeDone:
				if at, ok := started[ev.Task]; ok {
					tr.add("live.compute", node, 0, ev.Task, at, ev.At)
				}
			case live.EvResultSend:
				resSent[ev.Task] = ev.At
			case live.EvResultAck:
				if at, ok := resSent[ev.Task]; ok {
					resAck = append(resAck, us(at, ev.At))
					tr.add("live.result", node, 0, ev.Task, at, ev.At)
					delete(resSent, ev.Task)
				}
			}
		}
	}
	lm["live.node.task_rtt_us.p50"] = quantile(rtt, 0.5)
	lm["live.node.task_rtt_us.p99"] = quantile(rtt, 0.99)
	lm["live.node.port_gap_us.p50"] = quantile(gap, 0.5)
	lm["live.node.port_gap_us.p99"] = quantile(gap, 0.99)
	lm["live.node.queue_us.p50"] = quantile(queue, 0.5)
	lm["live.node.result_ack_us.p50"] = quantile(resAck, 0.5)
}

// splitVsEngine compares where tasks were computed live with where the
// simulator computes them on the same tree and task count: the sum over
// nodes of the absolute difference in share.
func splitVsEngine(spec overlaySpec, p *phase) (float64, error) {
	res, err := engine.Run(engine.Config{Tree: spec.tree, Protocol: protocol.Interruptible(3), Tasks: p.tasks})
	if err != nil {
		return 0, err
	}
	var d float64
	for i, c := range p.d.computed {
		d += math.Abs(float64(c)-float64(res.Nodes[i].Computed)) / float64(p.tasks)
	}
	return d, nil
}

// probeWire measures the data plane alone (live.WireBench: framing, codec
// and loopback TCP, no scheduling): the ceiling under every overlay rate.
func probeWire(tiny bool, lm map[string]float64) error {
	frames := pick(tiny, 2_000, 100_000)
	for _, c := range []live.Codec{live.CodecBinary, live.CodecGob} {
		r, err := live.WireBench(c, 2, frames, 256, 8)
		if err != nil {
			return fmt.Errorf("wire bench %v: %w", c, err)
		}
		lm["live.wire.frames_per_s."+c.String()] = r.FramesPerSec()
	}
	r, err := live.WireBench(live.CodecBinary, 2, frames/5, 4096, 8)
	if err != nil {
		return fmt.Errorf("wire bench 4k: %w", err)
	}
	lm["live.wire.mb_per_s.4k"] = r.BytesPerSec() / 1e6
	return nil
}

// probeLink times the full request → chunk → ack → compute → result
// cycle with nothing overlapped: one child, one buffer, gated root. If
// 1e6 / ops_per_s on overlay-small equals it, the pipeline overlaps
// nothing.
func probeLink(e env, lm map[string]float64) error {
	spec := overlaySpec{tree: star(1), tasks: pick(e.tiny, 200, 2_000), payload: 256, buffers: 1, warmRuns: 1}
	o, err := startWarm(spec, e.seed, -1)
	if err != nil {
		return err
	}
	defer o.close()
	var m meter
	if failed, note := o.runOnce(spec.tasks, &m); failed > 0 {
		return fmt.Errorf("serial link probe: %s", note)
	}
	lm["live.link.serial_task_us"] = m.wall[0] * 1e6 / float64(spec.tasks)
	return nil
}

// probeRunSize measures how the task rate falls as one Run grows: the
// rate of 1,000-task Runs over that of one 20,000-task Run on the same
// overlay. 1.0 is scale-free.
func probeRunSize(spec overlaySpec, e env, lm map[string]float64) error {
	small, big := pick(e.tiny, 100, 1_000), pick(e.tiny, 400, 20_000)
	spec.tasks, spec.warmRuns = big, 0
	o, err := startOverlay(spec, e.seed, -1)
	if err != nil {
		return err
	}
	defer o.close()
	var ms, mb meter
	for i := 0; i < 6; i++ { // the first warms
		if failed, note := o.runOnce(small, &ms); failed > 0 {
			return fmt.Errorf("run-size probe: %s", note)
		}
	}
	if failed, note := o.runOnce(big, &mb); failed > 0 {
		return fmt.Errorf("run-size probe: %s", note)
	}
	lm["live.node.runsize_slowdown"] = median(rates(float64(small), ms.wall[1:])) / (float64(big) / mb.wall[0])
	return nil
}
