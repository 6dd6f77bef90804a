// Fixture for stale-ignore detection, exercised through errdiscipline:
// a reasoned ignore that suppresses a live finding is kept quiet, but
// one whose finding has since been fixed becomes a finding itself.
package staleignore

import "errors"

func mayFail() error { return errors.New("boom") }

func stillNeeded() {
	_ = mayFail() //lint:bwvet-ignore fixture: finding still live, suppression earns its keep
}

func fixedLongAgo() error {
	//lint:bwvet-ignore fixture: the discard this excused was removed
	// want-above "stale bwvet-ignore: this suppresses no finding anymore"
	return mayFail()
}

func inlineStale() error {
	return mayFail() //lint:bwvet-ignore fixture: the error is returned now // want "stale bwvet-ignore"
}
