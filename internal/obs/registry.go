package obs

// Registry maps dotted metric names to reader closures. Subsystems keep
// their existing Stats structs; the registry reads them on Snapshot, so
// registration costs nothing on the hot path.
//
// Names follow `subsystem.metric` (e.g. "tlb.misses") with further dots
// for sub-components ("mm.lock.wait_cycles", "ext4.journal.commits").
// A name has one reader at a time: several machines may share one
// registry (an experiment sweep), each removing its readers when it ends,
// so a snapshot reads only live state.
type Registry struct {
	counters map[string]func() uint64
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]func() uint64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter registers a named counter read through fn at snapshot time.
// Gauges (values that can shrink, e.g. dram.used_bytes) register the same
// way; Delta clamps them at zero. Registering a name that already has a
// reader panics: its owner has not removed it.
func (r *Registry) Counter(name string, fn func() uint64) {
	if r == nil {
		return
	}
	if _, dup := r.counters[name]; dup {
		panic("obs: counter " + name + " is already registered")
	}
	r.counters[name] = fn
}

// Remove drops the named counters' readers; names without one are
// ignored.
func (r *Registry) Remove(names ...string) {
	if r == nil {
		return
	}
	for _, name := range names {
		delete(r.counters, name)
	}
}

// Histogram registers (or returns the existing) named log2 histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// ZeroHistograms empties every registered histogram in place, so the
// observers holding them go on feeding the same ones.
func (r *Registry) ZeroHistograms() {
	if r == nil {
		return
	}
	for _, h := range r.hists {
		*h = Histogram{}
	}
}

// Names lists registered counter names, sorted.
func (r *Registry) Names() []string {
	return SortedKeys(r.counters)
}

// Snapshot reads every registered counter and histogram. Call it at
// window boundaries and diff with Delta so benches report only the
// measured interval.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, fn := range r.counters {
		s.Counters[name] = fn()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a point-in-time reading of every registered metric.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters"`
	Hists    map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Get returns one counter (0 when absent).
func (s Snapshot) Get(name string) uint64 { return s.Counters[name] }

// Delta returns this snapshot minus prev: the activity of the measured
// window. Counters are monotonic so the subtraction is exact; gauge-style
// entries that shrank clamp to zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: make(map[string]uint64, len(s.Counters)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for name, v := range s.Counters {
		p := prev.Counters[name]
		if v > p {
			d.Counters[name] = v - p
		} else {
			d.Counters[name] = 0
		}
	}
	for name, h := range s.Hists {
		d.Hists[name] = h.Delta(prev.Hists[name])
	}
	return d
}
