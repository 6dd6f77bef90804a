package live

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"
)

// Codec names the stream WireBench measures. It is the benchmark's and
// nothing else's: nodes speak one wire format (wireVersion, codec.go), and
// CodecGob survives only so the live.wire.frames_per_s.gob ledger row keeps
// measuring what its name says until the benchmark drops the row — the
// Codec type, its constants and WireBench's two gob branches go with it
// (TestGobOnlyInWireBench in invariants_test.go fences the import to this file).
type Codec uint8

const (
	// CodecGob is the retired stream: one gob-encoded message envelope per
	// frame, one frame per write.
	CodecGob Codec = 0
	// CodecBinary is the wire format nodes speak.
	CodecBinary Codec = 1
)

func (c Codec) String() string {
	if c == CodecGob {
		return "gob"
	}
	return "binary"
}

// WireBenchResult summarizes one WireBench run. Frames and Bytes are
// measured at the senders' counting writers, so Bytes includes all
// codec overhead.
type WireBenchResult struct {
	Frames  int64         `json:"frames"`
	Bytes   int64         `json:"bytes"`
	Elapsed time.Duration `json:"elapsedNs"`
}

// FramesPerSec is the run's frame throughput across all links.
func (r WireBenchResult) FramesPerSec() float64 { return r.perSec(r.Frames) }

// BytesPerSec is the run's wire throughput across all links.
func (r WireBenchResult) BytesPerSec() float64 { return r.perSec(r.Bytes) }

func (r WireBenchResult) perSec(k int64) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(k) / r.Elapsed.Seconds()
}

// WireBench measures raw data-plane throughput — framing, codec, and
// loopback TCP, with the scheduling engine out of the picture. It opens
// links parent→child connections, and each sender streams frames chunk
// frames of size payload bytes, batched batch frames per write (the gob
// stream sends frame-at-a-time). The receiver side decodes every frame;
// the run ends when every link has delivered its full count.
//
// The benchmark's live.wire.* ledger rows report this measurement. An
// overlay under real task load adds scheduling, compute, and round-trip
// costs on top, so WireBench is the data plane's ceiling, useful for
// comparing codecs against each other rather than predicting overlay
// task throughput.
func WireBench(codec Codec, links, frames, size, batch int) (WireBenchResult, error) {
	if codec != CodecBinary && codec != CodecGob {
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
			c := newConn(raw, "parent", nil, 0, nil)
			recv := func() error { _, err := c.recv(); return err }
			if codec == CodecGob {
				dec := gob.NewDecoder(c.br)
				recv = func() error { return dec.Decode(new(message)) }
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.close()
				for n := 0; n < frames; n++ {
					if err := recv(); err != nil {
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
		c := newConn(raw, fmt.Sprintf("w%d", l+1), nil, 0, &ctr)
		send := func(ms []*message) error { _, err := c.sendBatch(ms); return err }
		if codec == CodecGob { // one envelope per frame, one frame per write: batch is 1
			enc := gob.NewEncoder(c.w)
			send = func(ms []*message) error { ctr.framesSent.Add(1); return enc.Encode(ms[0]) }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			msgs := make([]message, batch)
			group := make([]*message, batch)
			for sent := 0; sent < frames; {
				n := min(batch, frames-sent)
				for i := 0; i < n; i++ {
					msgs[i] = message{
						Kind: kindChunk, Task: uint64(sent + i + 1),
						Size: size, Data: payload,
					}
					group[i] = &msgs[i]
				}
				if err := send(group[:n]); err != nil {
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
