package live

import (
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// TestFrameBytesGolden pins the wire bytes themselves: each sampleFrames
// frame must encode to the hex line testdata/frames.golden holds for it.
// The round-trip tests pass if encode and decode drift together; this one
// does not. There is no update switch: a deliberate wire change edits the
// file by hand and bumps wireVersion.
func TestFrameBytesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	samples := sampleFrames()
	if len(want) != len(samples) {
		t.Fatalf("golden file has %d frames, sampleFrames %d", len(want), len(samples))
	}
	for i, m := range samples {
		buf, err := appendFrame(nil, m)
		if err != nil {
			t.Fatalf("appendFrame(kind %d): %v", m.Kind, err)
		}
		if got := hex.EncodeToString(buf); got != want[i] {
			t.Errorf("kind %d encodes as\n %s\nwant\n %s", m.Kind, got, want[i])
		}
	}
}
