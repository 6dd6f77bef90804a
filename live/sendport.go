package live

import "time"

// sendPort is the node's single outbound task port. It writes each turn
// the owner decides (portTurn) — the chunk write paced on an emulated link
// and timed, including any delay — and reports back.
func (n *Node) sendPort() {
	var frames []*message
	for turn := range n.portJobs {
		for i := range turn {
			w := &turn[i]
			if w.tr != nil && w.restart {
				n.portDue = time.Time{}
			}
			if w.tr != nil && n.cfg.linkDelay != nil { // a single chunk
				w.delay = n.cfg.linkDelay(w.s.name)
				n.paceChunk(w.delay)
			}
			start := time.Now()
			frames = frames[:0]
			for k := range w.msgs {
				frames = append(frames, &w.msgs[k])
			}
			if w.accepted, w.err = w.c.sendBatch(frames); w.err != nil {
				_ = w.c.close() // the child is unreachable
			}
			w.took = time.Since(start)
		}
		n.put(input{kind: inTurnDone})
	}
}

// paceChunk charges one chunk of the emulated link to the port's
// schedule and sleeps until it is due. The schedule runs for as long as
// the port stays busy (the owner restarts it whenever the port idles), so
// a late wake-up or a slow write shortens the next sleep instead of adding
// to every chunk: k back-to-back chunks take k·d plus one overshoot, never
// less than k·d, and idle time is never credit.
func (n *Node) paceChunk(d time.Duration) {
	if d <= 0 {
		return
	}
	if n.portDue.IsZero() {
		n.portDue = time.Now()
	}
	n.portDue = n.portDue.Add(d)
	time.Sleep(time.Until(n.portDue))
}
