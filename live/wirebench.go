package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// WireBenchResult summarizes one WireBench run. Frames and Bytes are
// measured at the senders' counting writers, so Bytes includes all
// codec overhead.
type WireBenchResult struct {
	Frames  int64         `json:"frames"`
	Bytes   int64         `json:"bytes"`
	Elapsed time.Duration `json:"elapsedNs"`
}

// FramesPerSec is the run's frame throughput across all links.
func (r WireBenchResult) FramesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Frames) / r.Elapsed.Seconds()
}

// BytesPerSec is the run's wire throughput across all links.
func (r WireBenchResult) BytesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds()
}

// WireBench measures raw data-plane throughput — framing, codec, and
// loopback TCP, with the scheduling engine out of the picture. It opens
// links parent→child connections pinned to codec, and each sender
// streams frames chunk frames of size payload bytes, batched batch
// frames per write on binary links (gob has no batched writer and
// always sends frame-at-a-time, exactly like the engine). The receiver
// side decodes every frame; the run ends when every link has delivered
// its full count.
//
// The benchmark's live.wire.* ledger rows report this measurement. An
// overlay under real task load adds scheduling, compute, and round-trip
// costs on top, so WireBench is the data plane's ceiling, useful for
// comparing codecs against each other rather than predicting overlay
// task throughput.
func WireBench(codec Codec, links, frames, size, batch int) (WireBenchResult, error) {
	if !codecSupported(codec) && codec != CodecGob {
		return WireBenchResult{}, fmt.Errorf("live: unsupported wire codec %d", codec)
	}
	if links < 1 || frames < 1 || size < 0 {
		return WireBenchResult{}, fmt.Errorf("live: wire bench needs links >= 1, frames >= 1, size >= 0")
	}
	if batch < 1 || codec == CodecGob {
		batch = 1
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return WireBenchResult{}, err
	}
	defer ln.Close()

	var (
		seq  atomic.Uint64
		ctr  wireCounters // senders only: counts exactly the benched direction
		wg   sync.WaitGroup
		errs = make(chan error, 2*links)
	)

	// Receivers: accept, decode every frame, report.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < links; i++ {
			raw, err := ln.Accept()
			if err != nil {
				errs <- err
				return
			}
			c := newConn(raw, "parent", nil, 0, &seq, nil)
			c.codec = codec
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.close()
				for n := 0; n < frames; n++ {
					if _, err := c.recv(); err != nil {
						errs <- fmt.Errorf("live: wire bench recv after %d frames: %w", n, err)
						return
					}
				}
			}()
		}
	}()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}

	start := time.Now()
	for l := 0; l < links; l++ {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close()
			return WireBenchResult{}, err
		}
		c := newConn(raw, fmt.Sprintf("w%d", l+1), nil, 0, &seq, &ctr)
		c.codec = codec
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			msgs := make([]message, batch)
			group := make([]*message, batch)
			for sent := 0; sent < frames; {
				n := batch
				if left := frames - sent; left < n {
					n = left
				}
				for i := 0; i < n; i++ {
					msgs[i] = message{
						Kind: kindChunk, Task: uint64(sent + i + 1),
						Size: size, Data: payload, Last: true,
					}
					group[i] = &msgs[i]
				}
				if _, err := c.sendBatch(group[:n]); err != nil {
					errs <- fmt.Errorf("live: wire bench send after %d frames: %w", sent, err)
					return
				}
				sent += n
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	select {
	case err := <-errs:
		return WireBenchResult{}, err
	default:
	}
	return WireBenchResult{
		Frames:  ctr.framesSent.Load(),
		Bytes:   ctr.bytesSent.Load(),
		Elapsed: elapsed,
	}, nil
}
