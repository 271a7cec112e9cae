package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseCampaignSpec hardens the campaign-spec boundary (al-eval -spec
// files, al-serve submissions): no input may panic the parser, and every
// spec it accepts must be canonical after one Marshal, i.e.
// Marshal → ParseCampaignSpec → Marshal is byte-stable. The corpus is
// seeded with the shipped example specs and the round-trip cases.
//
//	go test -run '^$' -fuzz FuzzParseCampaignSpec -fuzztime 10s ./internal/engine
func FuzzParseCampaignSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no example specs found under examples/specs/")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, spec := range roundTripSpecs() {
		data, err := spec.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseCampaignSpec(data)
		if err != nil {
			return
		}
		first, err := spec.Marshal()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := ParseCampaignSpec(first)
		if err != nil {
			t.Fatalf("canonical form of an accepted spec is rejected: %v\n%s", err, first)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("re-parsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("marshal -> parse -> marshal not byte-stable:\n%s\nvs\n%s", first, second)
		}
	})
}
