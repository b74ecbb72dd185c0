package autotune

import (
	"fmt"
	"os"
	"path/filepath"

	"critter/internal/critter"
)

// WriteProfileFile persists a kernel profile as indented JSON with a
// trailing newline — the on-disk convention shared by the CLIs'
// -profile-out flags (and read back by -profile-in via
// critter.DecodeProfile). A nil profile is an error: the run exported
// nothing to persist.
//
// The write is atomic: the bytes go to a temporary file in the target
// directory which is then renamed over path, so a run killed mid-write (a
// -timeout expiry, a ^C) can never leave a truncated profile behind for a
// later -profile-in to choke on.
func WriteProfileFile(path string, p *critter.Profile) error {
	if p == nil {
		return fmt.Errorf("autotune: no profile to write: every sweep failed or exported nothing")
	}
	data, err := p.Encode()
	if err != nil {
		return err
	}
	// The temp file sits beside the target (same filesystem, so the
	// rename is atomic) and is opened exactly like os.WriteFile would
	// open the target — mode 0644 with the caller's umask applied — so
	// the published file's permissions match the pre-atomic behavior.
	dir, base := filepath.Split(path)
	tmpPath := filepath.Join(dir, "."+base+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	// Flushed before the rename publishes it: a crash after the rename must
	// leave the whole profile, never an empty or short one.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpPath, path)
}
