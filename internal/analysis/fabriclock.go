package analysis

import (
	"strings"
)

// FabricLock restricts raw synchronization primitives in internal/mpi to
// fabric.go and world.go. The PR-4 lock architecture gives every rank its
// own mailbox and shards collectives eight ways precisely so there is no
// world-global lock; it lives in those two files. Any other file in the
// package importing sync or sync/atomic is a regression vector — new
// shared state should route through the fabric (or move into the
// sanctioned files with a design note). Test files are exempt: they
// synchronize their own harnesses, not the runtime.
var FabricLock = &Analyzer{
	Name: "fabriclock",
	Doc:  "restrict raw sync/atomic use in internal/mpi to fabric.go and world.go",
	Run:  runFabricLock,
}

// fabricLockFiles are the files sanctioned to hold locks in internal/mpi.
var fabricLockFiles = map[string]bool{
	"fabric.go": true,
	"world.go":  true,
}

func runFabricLock(pass *Pass) error {
	if basePath(pass.Pkg.Path()) != "critter/internal/mpi" {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) || fabricLockFiles[fileBase(pass.Fset, f.Package)] {
			continue
		}
		for _, spec := range f.Imports {
			switch strings.Trim(spec.Path.Value, `"`) {
			case "sync", "sync/atomic":
				pass.Reportf(spec.Pos(),
					"import of %s outside fabric.go/world.go: the mpi lock architecture (per-rank mailboxes, sharded collectives, no world-global lock) is confined to those files — route synchronization through the fabric or move this into a sanctioned file",
					spec.Path.Value)
			}
		}
	}
	return nil
}
