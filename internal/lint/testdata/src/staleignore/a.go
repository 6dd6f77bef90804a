// Fixture for stale-ignore detection, exercised through lockdiscipline:
// a reasoned ignore that suppresses a live finding is kept quiet, but
// one whose finding has since been fixed becomes a finding itself.
package staleignore

import "sync"

type t struct {
	mu sync.Mutex
	ch chan int
}

func stillNeeded(x *t) {
	x.mu.Lock()
	x.ch <- 1 //lint:bwvet-ignore fixture: finding still live, suppression earns its keep
	x.mu.Unlock()
}

func fixedLongAgo(x *t) {
	x.mu.Lock()
	x.mu.Unlock()
	//lint:bwvet-ignore fixture: the send this excused was removed
	// want-above "stale bwvet-ignore: this suppresses no finding anymore"
	x.ch <- 2
}

func inlineStale(x *t) {
	x.ch <- 3 //lint:bwvet-ignore fixture: nothing locked here anymore // want "stale bwvet-ignore"
}
