package fixture

import (
	"sync"        // want "outside fabric.go/world.go:"
	"sync/atomic" // want "outside fabric.go/world.go:"
)

var strayMu sync.Mutex
var strayFlag atomic.Int64

func stray() {
	strayMu.Lock()
	strayFlag.Add(1)
	strayMu.Unlock()
}
