// Package det exercises the determinism analyzer: wall clocks, the
// global rand source, raw goroutines, selects, map ranges that charge,
// emit or pass the thread to a call, and sync imports.
package det

import (
	"math/rand"
	"sort"
	"time"

	"daxvm/tools/simlint/teststub/obs"
	"daxvm/tools/simlint/teststub/sim"
)

func wallClock() time.Duration {
	start := time.Now()      // want `wall-clock time\.Now`
	time.Sleep(0)            // want `wall-clock time\.Sleep`
	return time.Since(start) // want `wall-clock time\.Since`
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand\.Intn`
}

func seededRandOK(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

func rawGoroutine() {
	go func() {}() // want `raw go statement`
}

func suppressedGoroutine() {
	//lint:ignore determinism token handoff keeps this deterministic
	go func() {}()
}

func multiSelect(a, b chan int) int {
	select { // want `select over multiple channels`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

func singleSelectOK(a chan int) int {
	select {
	case v := <-a:
		return v
	}
}

func chargingMapRange(t *sim.Thread, costs map[string]uint64) {
	for _, c := range costs { // want `map iteration order is randomized but the body charges cycles`
		t.Charge(c)
	}
}

func batchChargingMapRange(t *sim.Thread, runs map[sim.Label]uint64) {
	for _, n := range runs { // want `map iteration order is randomized but the body charges cycles \(ChargeN\)`
		t.ChargeN(3, n)
	}
	for label, n := range runs { // want `map iteration order is randomized but the body charges cycles \(ChargeAsN\)`
		t.ChargeAsN(label, 3, n)
	}
}

func emittingMapRange(tr *obs.Tracer, costs map[string]uint64) {
	for name, c := range costs { // want `map iteration order is randomized but the body emits trace events`
		tr.Emit(tr.Intern(name, ""), 0, 0, c, 0)
	}
}

func callbackMapRange(t *sim.Thread, callbacks map[string]func(*sim.Thread)) {
	for _, fn := range callbacks { // want `map iteration order is randomized but the body passes a \*sim\.Thread to a call`
		fn(t)
	}
}

func threadArgMapRange(t *sim.Thread, mu map[string]*sim.Mutex) {
	for _, m := range mu { // want `map iteration order is randomized but the body passes a \*sim\.Thread to a call`
		m.Lock(t, 0)
	}
}

func aggregatingMapRangeOK(t *sim.Thread, costs map[string]uint64) {
	var total uint64
	for _, c := range costs {
		total += c
	}
	t.Charge(total)
}

func sortedMapRangeOK(t *sim.Thread, costs map[string]uint64) {
	keys := make([]string, 0, len(costs))
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Charge(costs[k])
	}
}
