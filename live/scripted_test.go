package live

import (
	"bufio"
	"fmt"
	"net"
)

// scriptedPeer is one end of a link driven by hand, frame by frame, for
// tests that script what no real node would do: take a task and die, come
// back holding nothing, answer a hello and hang up. It speaks the wire
// format through the production codec — appendFrame, readFrame,
// decodeFrame — and is nothing else of a node. Its methods return errors
// instead of failing the test, so scripts can run off the test goroutine.
type scriptedPeer struct {
	raw net.Conn
	br  *bufio.Reader
	in  interner
}

func newScriptedPeer(raw net.Conn) *scriptedPeer {
	return &scriptedPeer{raw: raw, br: bufio.NewReader(raw)}
}

// dialScripted connects a scripted child to a node's listener.
func dialScripted(addr string) (*scriptedPeer, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newScriptedPeer(raw), nil
}

func (p *scriptedPeer) close() { _ = p.raw.Close() }

// write sends one frame, one write.
func (p *scriptedPeer) write(m *message) error {
	buf, err := appendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = p.raw.Write(buf)
	return err
}

// read returns the next frame in a message of its own.
func (p *scriptedPeer) read() (*message, error) {
	body, err := readFrame(p.br, nil)
	if err != nil {
		return nil, err
	}
	m := new(message)
	if err := decodeFrame(body, m, &p.in); err != nil {
		return nil, err
	}
	return m, nil
}

// hello plays the child's side of the handshake: m goes out as a hello
// offering this build's wire version, and the parent's ack comes back.
func (p *scriptedPeer) hello(m message) (*message, error) {
	m.Kind = kindHello
	if err := p.write(&m); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	ack, err := p.read()
	if err != nil {
		return nil, fmt.Errorf("hello ack: %w", err)
	}
	if ack.Kind != kindHelloAck {
		return nil, fmt.Errorf("hello answered with frame kind %d", ack.Kind)
	}
	return ack, nil
}

// takeTask asks for one task and assembles it, skipping every frame that is
// not a chunk.
func (p *scriptedPeer) takeTask() (id uint64, payload []byte, err error) {
	if err := p.write(&message{Kind: kindRequest, N: 1}); err != nil {
		return 0, nil, fmt.Errorf("request: %w", err)
	}
	for {
		m, err := p.read()
		if err != nil {
			return 0, nil, fmt.Errorf("read chunk: %w", err)
		}
		if m.Kind != kindChunk {
			continue
		}
		if payload == nil {
			payload = make([]byte, m.Size)
		}
		copy(payload[m.Offset:], m.Data)
		if m.Offset+len(m.Data) == m.Size {
			return m.Task, payload, nil
		}
	}
}

// drain discards inbound frames until the link closes, so the node's
// writes never block on a peer that has stopped reading.
func (p *scriptedPeer) drain() {
	for {
		if _, err := p.read(); err != nil {
			return
		}
	}
}
