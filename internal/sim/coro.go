//go:build go1.23

// The build line sets this file's language version to go1.23, the first
// with iter.Pull, while go.mod stays at the go1.22 the separate bench/host
// module also declares.

package sim

import "iter"

// start makes t's coroutine, which runs t's body each time the driver
// resumes it until t yields the token back.
func (t *Thread) start() {
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.main()
	})
}
