// Package golden is how a test in this repository pins bytes: it compares
// what the test produced with a file under testdata/ and, under
// -update-golden, rewrites that file instead. Every pinned statistic (the
// golden envelopes, the exported-profile hashes, the online path tables,
// the noise-free bias, the figure board) and every pinned format (the
// facade's names, the profile encoding) goes through Check, and one
// command, `bash scripts/restat.sh`, re-records all of them. Only test
// files import this package, so only test binaries carry the flag.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Regenerate is the command that re-records every golden file.
const Regenerate = "bash scripts/restat.sh"

var update = flag.Bool("update-golden", false, "rewrite golden files with what the tests produce")

// Check compares got byte for byte with the file at path. A mismatch fails
// t with the first differing line and Regenerate; so does a missing file.
// Under -update-golden Check replaces the file with got instead (a
// temporary file renamed over it, so an interrupted run leaves the old
// bytes), unless t has already failed: its output may be incomplete.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if t.Failed() {
			t.Errorf("%s not rewritten: the test failed before its output was complete", path)
			return
		}
		if err := write(path, got); err != nil {
			t.Errorf("rewrite %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v; record it with %s", err, Regenerate)
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	n, g, w := firstDiff(got, want)
	t.Errorf("%s differs at line %d:\n got: %s\nwant: %s\nif the change is intended, re-record every pin with %s and review the diff",
		path, n, g, w, Regenerate)
}

// firstDiff returns the 1-based number of the first line at which got and
// want differ, and that line of each; got and want must differ.
func firstDiff(got, want []byte) (int, string, string) {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := func(ls [][]byte, i int) string {
		if i < len(ls) {
			return string(ls[i])
		}
		return "(past the end)"
	}
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	return i + 1, line(gl, i), line(wl, i)
}

// write replaces path with data through a temporary file in its directory.
func write(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Chmod(f.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
