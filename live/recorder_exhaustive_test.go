package live

import (
	"strings"
	"testing"
)

// TestRecorderWireExhaustive cross-checks the wireTraced coverage map of
// recorder.go against the kind* wire constants of wire.go: every wire
// frame kind must name at least one recorder event kind that traces it,
// so a future frame type cannot ship untraced — the recorder counterpart
// of TestFaultSelectorExhaustive.
func TestRecorderWireExhaustive(t *testing.T) {
	kinds := constNames(t, "wire.go", "msgKind")
	if len(kinds) == 0 {
		t.Fatal("no msgKind constants found in wire.go; did the type move?")
	}
	// wireTraced keys cannot be compared by name (map keys are values), so
	// pin the name→value pairing here, mirroring kindSelectors.
	byName := map[string]msgKind{
		"kindHello":     kindHello,
		"kindRequest":   kindRequest,
		"kindChunk":     kindChunk,
		"kindResult":    kindResult,
		"kindShutdown":  kindShutdown,
		"kindHeartbeat": kindHeartbeat,
		"kindHelloAck":  kindHelloAck,
		"kindGoodbye":   kindGoodbye,
		"kindResultAck": kindResultAck,
	}
	for name := range kinds {
		k, pinned := byName[name]
		if !pinned {
			t.Errorf("wire.go declares %s but this test's byName map does not cover it: add it here and trace it in recorder.go's wireTraced", name)
			continue
		}
		evs, traced := wireTraced[k]
		if !traced || len(evs) == 0 {
			t.Errorf("wire kind %s has no recorder event kinds in wireTraced: frames of this kind would cross links unobserved", name)
		}
	}
	for name := range byName {
		if !kinds[name] {
			t.Errorf("this test pins %s, which wire.go no longer declares", name)
		}
	}
	if got, want := len(wireTraced), len(kinds); got != want {
		t.Errorf("wireTraced covers %d wire kinds, wire.go declares %d", got, want)
	}

	// Every event kind referenced by the coverage map must have a stable
	// name (the JSON encoding bwtrace parses), and names must round-trip.
	seen := map[EventKind]bool{}
	for _, evs := range wireTraced {
		for _, ev := range evs {
			seen[ev] = true
		}
	}
	for ev := range seen {
		name := ev.String()
		if name == "unknown" || name == "" {
			t.Errorf("event kind %d has no name in eventKindNames", ev)
			continue
		}
		var back EventKind
		if err := back.UnmarshalText([]byte(name)); err != nil || back != ev {
			t.Errorf("event kind %v does not round-trip through its name %q (got %v, err %v)", ev, name, back, err)
		}
	}
	// And every named event kind is kebab-case, the dump convention.
	for i, name := range eventKindNames {
		if name == "" {
			continue
		}
		if name != strings.ToLower(name) || strings.Contains(name, "_") {
			t.Errorf("event kind %d name %q is not kebab-case", i, name)
		}
	}
}
