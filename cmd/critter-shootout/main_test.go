package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCapitalScoresIdenticallyAtAnyWorkerCount runs the command on the
// capital workload with one sweep worker and with four: the two runs print
// and render the same bytes, and the rendering — preamble and capital
// section — is how the committed BENCH_shootout.md begins
// (scripts/shootout-smoke.sh compares the whole file).
func TestCapitalScoresIdenticallyAtAnyWorkerCount(t *testing.T) {
	shoot := func(workers string) (stdout, markdown string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "board.md")
		var out, errs bytes.Buffer
		err := run([]string{"-studies", "capital", "-scale", "quick", "-workers", workers, "-markdown", path}, &out, &errs)
		if err != nil {
			t.Fatalf("-workers %s: %v\n%s", workers, err, errs.String())
		}
		if errs.Len() != 0 {
			t.Errorf("-workers %s: stderr without -golden-dir or -require:\n%s", workers, errs.String())
		}
		md, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), string(md)
	}
	out1, md1 := shoot("1")
	out4, md4 := shoot("4")
	if out1 != out4 {
		t.Errorf("stdout differs between -workers 1 and -workers 4:\n%s\n---\n%s", out1, out4)
	}
	if !strings.Contains(out1, "surrogate:6") {
		t.Errorf("stdout is not the scoreboard:\n%s", out1)
	}
	if md1 != md4 {
		t.Errorf("Markdown differs between -workers 1 and -workers 4:\n%s\n---\n%s", md1, md4)
	}

	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_shootout.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(committed), md1) {
		t.Errorf("BENCH_shootout.md does not begin with this rendering; regenerate it with `go run ./cmd/critter-shootout -scale quick -markdown BENCH_shootout.md`:\n%s", md1)
	}
}
