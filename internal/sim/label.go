package sim

// Label is a dense id for an attribution label or span class name
// ("fault.minor", "walk.huge", ...). NewLabel mints it once per name, so
// the charge and span paths compare ints where they would compare
// strings; the name is read back only when a path or a class is first
// interned and when an export prints it. Labels are process-wide and
// never freed: mint them into package-level variables, or once when a
// long-lived structure is built, never on a hot path.
type Label uint32

// labels is the process-wide name table: names[l] is label l's name and
// ids inverts it. Engines on different goroutines (parallel tests, two
// kernels booting at once) share it, so every access holds labelLock, a
// one-slot channel: a send takes the lock, a receive releases it.
var (
	labels struct {
		ids   map[string]Label
		names []string
	}
	labelLock = make(chan struct{}, 1)
)

// NewLabel returns the label named name, minting it on first use.
// Minting is idempotent by name and safe from any goroutine.
func NewLabel(name string) Label {
	lockLabels()
	defer unlockLabels()
	if l, ok := labels.ids[name]; ok {
		return l
	}
	if labels.ids == nil {
		labels.ids = map[string]Label{}
	}
	l := Label(len(labels.names))
	labels.names = append(labels.names, name)
	labels.ids[name] = l
	return l
}

// String returns the name the label was minted from.
func (l Label) String() string {
	lockLabels()
	defer unlockLabels()
	return labels.names[l]
}

// NumLabels reports how many labels the process has minted.
func NumLabels() int {
	lockLabels()
	defer unlockLabels()
	return len(labels.names)
}

func lockLabels()   { labelLock <- struct{}{} }
func unlockLabels() { <-labelLock }
