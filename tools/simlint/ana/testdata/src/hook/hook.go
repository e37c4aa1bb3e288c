// Package hook declares an interface whose method takes a type of its
// own package, and calls it. Its implementation lives in package
// hookimpl, which sees hook's types through export data.
package hook

// Event is what a Hook observes.
type Event struct{ N int }

// Hook observes events.
type Hook interface {
	Fire(e *Event)
}

// Run fires h.
func Run(h Hook, e *Event) {
	h.Fire(e)
}
