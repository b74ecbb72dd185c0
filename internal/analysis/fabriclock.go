package analysis

import (
	"strings"
)

// FabricLock restricts raw synchronization primitives in internal/mpi to
// fabric.go and world.go. A world's ranks are coroutines that never run at
// once, so no communication path takes a lock; what does lock is state
// shared across worlds running on different goroutines (the BufPool), and
// it lives in those two files. Any other file in the package importing
// sync or sync/atomic is a regression vector — new shared state should
// route through the fabric (or move into the sanctioned files with a
// design note). Test files are exempt: they synchronize their own
// harnesses, not the runtime.
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
					"import of %s outside fabric.go/world.go: mpi's communication paths take no lock (a world's ranks never run at once) and its one shared-state lock is confined to those files — route synchronization through the fabric or move this into a sanctioned file",
					spec.Path.Value)
			}
		}
	}
	return nil
}
