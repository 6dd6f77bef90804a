// Fixture for the errdiscipline analyzer: silently discarded errors are
// findings outside the teardown allowlist, and fmt.Errorf wrapping must
// use %w.
package errdiscipline

import (
	"bufio"
	"errors"
	"fmt"
)

type conn struct{}

func (conn) Close() error               { return nil }
func (conn) SetWriteDeadline(int) error { return nil }
func (conn) send(string) error          { return nil }

func mayFail() error { return errors.New("boom") }

func discards(c conn) {
	_ = mayFail()   // want "error discarded: mayFail returns an error that is dropped"
	mayFail()       // want "error ignored: this bare call drops the error from mayFail"
	defer mayFail() // want "error ignored: this deferred call drops the error from mayFail"
	_ = c.send("x") // want "error discarded: c.send returns an error that is dropped"
}

func teardown(c conn, w *bufio.Writer) {
	_ = c.Close()             // Close: peer already gone
	defer c.Close()           // deferred teardown
	_ = c.SetWriteDeadline(0) // deadline setters: next I/O reports it
	_ = w.Flush()             // bufio teardown flush
	fmt.Println("drained")    // terminal write
}

func reasoned() {
	_ = mayFail() //lint:bwvet-ignore fixture: demonstrating a reasoned suppression
}

func wrap(err error) error {
	return fmt.Errorf("decode %q failed: %v", "frame", err) // want "fmt.Errorf wraps an error without %w"
}

func wrapEscaped(err error) error {
	return fmt.Errorf("100%%wrong: %v", err) // want "fmt.Errorf wraps an error without %w"
}

func wrapOK(err error) error {
	return fmt.Errorf("decode failed: %w", err)
}

func noErrArg(n int) error {
	return fmt.Errorf("bad count %d", n)
}
