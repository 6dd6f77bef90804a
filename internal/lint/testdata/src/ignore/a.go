// Fixture for //lint:bwvet-ignore handling, exercised through the
// errdiscipline analyzer: a reasoned ignore on the flagged line or the
// line above suppresses the finding; an ignore with no reason is itself
// reported (and suppresses nothing).
package ignore

import "errors"

func mayFail() error { return errors.New("boom") }

func sameLine() {
	_ = mayFail() //lint:bwvet-ignore fixture: reasoned same-line suppression
}

func lineAbove() {
	//lint:bwvet-ignore fixture: reasoned suppression covering the next line
	_ = mayFail()
}

func missingReason() {
	_ = mayFail() //lint:bwvet-ignore
	// want-above "error discarded: mayFail returns an error that is dropped" "malformed bwvet-ignore: a suppression must state its reason"
}

func unsuppressed() {
	_ = mayFail() // want "error discarded: mayFail returns an error that is dropped"
}
