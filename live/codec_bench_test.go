package live

import (
	"bufio"
	"bytes"
	"testing"
)

// benchFrames is the steady-state frame mix of a busy link: payload
// chunks dominate, with a request and the result round-trip riding along.
// The chunk carries the default 4096-byte payload slice.
func benchFrames() []message {
	data := bytes.Repeat([]byte{0xA5}, 4096)
	out := bytes.Repeat([]byte{0x5A}, 1024)
	return []message{
		{Kind: kindChunk, Task: 7, Size: 65536, Offset: 40960, Data: data, TraceSeq: 33},
		{Kind: kindRequest, N: 2, TraceSeq: 12},
		{Kind: kindResult, Task: 6, Origin: "w1", Output: out, TraceSeq: 11},
		{Kind: kindResultAck, Acks: []resultKey{{Task: 5, Origin: "w1"}, {Task: 6, Origin: "w1"}}, TraceSeq: 34},
	}
}

// BenchmarkEncodeFrame encodes the steady-state frame mix the way a conn
// does, re-using its append buffer.
func BenchmarkEncodeFrame(b *testing.B) {
	mix := benchFrames()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendFrame(buf[:0], &mix[i%len(mix)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFrame measures the read side over a pre-encoded stream:
// readFrame + decodeFrame with the conn's reusable buffers and interner.
func BenchmarkDecodeFrame(b *testing.B) {
	const streamFrames = 4096
	mix := benchFrames()
	var stream []byte
	for i := 0; i < streamFrames; i++ {
		var err error
		if stream, err = appendFrame(stream, &mix[i%len(mix)]); err != nil {
			b.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	br := bufio.NewReaderSize(r, 32<<10)
	var (
		rbuf []byte
		m    message
		in   interner
	)
	b.SetBytes(int64(len(stream) / streamFrames))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%streamFrames == 0 {
			r.Reset(stream)
			br.Reset(r)
		}
		body, err := readFrame(br, rbuf)
		rbuf = body[:cap(body)]
		if err != nil {
			b.Fatal(err)
		}
		if err := decodeFrame(body, &m, &in); err != nil {
			b.Fatal(err)
		}
	}
}
