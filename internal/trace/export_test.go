package trace

// Events returns the recorded events in order, for the tests to read. The
// slice is owned by the recorder.
func (r *Recorder) Events() []Event { return r.events }
