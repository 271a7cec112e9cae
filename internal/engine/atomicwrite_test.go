package engine

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, want := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"state.json"}) {
		t.Fatalf("directory holds %v, want only state.json", names)
	}
}

// TestWriteFileAtomicFailedCommit forces the rename to fail by making the
// target a non-empty directory: the target's previous contents must be
// intact and no temp file may be left behind.
func TestWriteFileAtomicFailedCommit(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(target, "keep")
	if err := os.WriteFile(keep, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(target, []byte("new"))
	var commit *os.LinkError
	if !errors.As(err, &commit) {
		t.Fatalf("err = %v, want a failed commit (*os.LinkError)", err)
	}
	if got, err := os.ReadFile(keep); err != nil || string(got) != "previous" {
		t.Fatalf("previous bytes = %q, %v; want %q", got, err, "previous")
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"target"}) {
		t.Fatalf("directory holds %v after a failed commit, want only target", names)
	}
}
