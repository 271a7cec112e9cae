package engine

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that readers see either the
// previous file or the complete new one, never a partial write. The bytes
// go to a uniquely named temp file in path's directory (mode 0600), which is
// closed and then renamed over path; on every failure the temp file is
// removed. A failed commit — the rename — returns the *os.LinkError that
// os.Rename reports; earlier failures return an *os.PathError. The write is
// not fsynced, so it is atomic against a crashed process but not against a
// crashed machine.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
	}
	return err
}
