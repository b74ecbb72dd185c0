package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runAsMain makes the test binary act as critter-tune: a child started
// with it set runs main on its own arguments, so the tests below exercise
// the real flag gate and exit codes without building a separate binary.
const runAsMain = "CRITTER_TUNE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExit2 holds every flag gate to its promise: a bad value
// exits 2 with a message on stderr and nothing on stdout, before any
// sweep runs.
func TestBadFlagsExit2(t *testing.T) {
	for _, bad := range [][2]string{
		{"-study", "bogus"},
		{"-scale", "huge"},
		{"-policy", "bogus"},
		{"-eps", "abc"},
		{"-strategy", "bogus"},
		{"-strategy", "halving:3"},
		{"-strategy", "surrogate:8:2"},
		{"-noise", "-1"},
		{"-noise", "NaN"},
	} {
		t.Run(bad[0]+"="+bad[1], func(t *testing.T) {
			args := []string{"-study", "capital", "-scale", "quick", bad[0], bad[1]}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), runAsMain+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("critter-tune %v: %v, want exit status 2\nstderr: %s", args, err, stderr.Bytes())
			}
			if stderr.Len() == 0 {
				t.Errorf("critter-tune %v exited 2 without a message", args)
			}
			if stdout.Len() != 0 {
				t.Errorf("critter-tune %v printed before exiting:\n%s", args, stdout.Bytes())
			}
		})
	}
}
