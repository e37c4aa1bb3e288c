package det

import (
	"sync"        // want `import of sync in simulator code: threads are coroutines`
	"sync/atomic" // want `import of sync/atomic in simulator code`
)

type guarded struct {
	mu sync.Mutex
	n  atomic.Uint64
}

func (g *guarded) bump() {
	g.mu.Lock()
	g.n.Add(1)
	g.mu.Unlock()
}
