// Package sim is a no-op mirror of daxvm/internal/sim's surface for
// analyzer fixtures. The simlint analyzers match simulator calls by
// (package name, method name, receiver type), so fixtures import this
// stub instead of dragging the whole engine into testdata builds.
package sim

// Label mirrors the dense attribution-label id.
type Label uint32

// NewLabel mirrors the label minting call; its map insert is what the
// hotalloc fixtures look for.
func NewLabel(name string) Label {
	if l, ok := labels[name]; ok {
		return l
	}
	l := Label(len(labels))
	labels[name] = l
	return l
}

var labels = map[string]Label{}

// Thread mirrors sim.Thread's charge/attribution surface.
type Thread struct{}

func (t *Thread) Charge(c uint64)                    { _ = c }
func (t *Thread) ChargeAs(label Label, c uint64)     { _, _ = label, c }
func (t *Thread) ChargeN(c, n uint64)                { _, _ = c, n }
func (t *Thread) ChargeAsN(label Label, c, n uint64) { _, _, _ = label, c, n }
func (t *Thread) AddRemote(path Label, c uint64)     { _, _ = path, c }
func (t *Thread) PushAttr(label Label)               { _ = label }
func (t *Thread) PopAttr()                           {}
func (t *Thread) Enter(label Label)                  { _ = label }
func (t *Thread) Leave()                             {}
func (t *Thread) Now() uint64                        { return 0 }
func (t *Thread) Sleep(d uint64)                     { _ = d }
func (t *Thread) SleepUntil(tm uint64)               { _ = tm }

// Engine mirrors the thread-spawning surface.
type Engine struct{}

func (e *Engine) Go(name string, core int, start uint64, fn func(*Thread)) *Thread {
	_, _, _, _ = name, core, start, fn
	return &Thread{}
}

func (e *Engine) GoDaemon(name string, core int, start uint64, fn func(*Thread)) *Thread {
	return e.Go(name, core, start, fn)
}

// Mutex mirrors the instrumented sleeping mutex.
type Mutex struct{}

func (m *Mutex) Lock(t *Thread, acqCost uint64)   { _, _ = t, acqCost }
func (m *Mutex) Unlock(t *Thread, relCost uint64) { _, _ = t, relCost }

// SpinLock mirrors the instrumented spinlock.
type SpinLock struct{}

func (s *SpinLock) Lock(t *Thread, acqCost uint64)   { _, _ = t, acqCost }
func (s *SpinLock) Unlock(t *Thread, relCost uint64) { _, _ = t, relCost }

// RWSem mirrors the instrumented reader/writer semaphore.
type RWSem struct{}

func (s *RWSem) Lock(t *Thread, acqCost uint64)    { _, _ = t, acqCost }
func (s *RWSem) Unlock(t *Thread, relCost uint64)  { _, _ = t, relCost }
func (s *RWSem) RLock(t *Thread, acqCost uint64)   { _, _ = t, acqCost }
func (s *RWSem) RUnlock(t *Thread, relCost uint64) { _, _ = t, relCost }
