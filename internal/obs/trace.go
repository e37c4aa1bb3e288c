package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// EvCounter is a sampled counter value for a Chrome counter track ("C"
// phase): Tag names the series, Arg carries the value at TS. The timeline
// sampler emits these so Perfetto plots throughput and contention curves
// over the same timebase as the span slices. Every other event type is a
// span class, emitted by span.Collector.End.
const EvCounter = "counter"

// Event is one traced occurrence in virtual time, as Events and the
// Chrome export present it.
type Event struct {
	TS   uint64 // virtual start time, cycles
	Dur  uint64 // duration in cycles (0 = instant)
	Core int    // simulated core (trace track)
	Type string // a span class ("fault.minor", ...) or EvCounter
	Tag  string // counter series name; empty on span slices
	Arg  uint64 // span tree self-cycles, or the counter value
}

// NameID is an event name interned in one tracer (Tracer.Intern): an
// index into its name table, which holds each distinct (Type, Tag) pair
// once. Callers intern a name once and emit by id, so the per-event path
// neither hashes nor stores a string.
type NameID uint16

// eventName is one name-table entry.
type eventName struct{ typ, tag string }

// record is one retained event: 32 bytes and no pointers, so the ring is
// never scanned by the garbage collector. Events rebuilds the Event.
type record struct {
	ts, dur, arg uint64
	core         int32
	name         NameID
}

// Tracer is a bounded ring of events. When full it overwrites the oldest,
// keeping the tail of the run and counting what it dropped; an always-on
// tracer therefore has fixed memory cost. Like every obs object it has a
// single owner (see the package doc), so Emit takes no lock.
type Tracer struct {
	buf     []record
	next    int
	wrapped bool
	dropped uint64

	names []eventName          // indexed by NameID
	ids   map[eventName]NameID // the inverse of names

	// CyclesPerUsec converts virtual cycles to trace microseconds on
	// export (default 2700, the simulator's 2.7 GHz clock).
	CyclesPerUsec float64
}

// NewTracer creates a tracer holding at most capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]record, 0, capacity), ids: map[eventName]NameID{}, CyclesPerUsec: 2700}
}

// Intern returns the id of the event name (typ, tag), adding it to the
// name table on first use: typ is a span class or EvCounter, tag the
// counter series (empty on span slices). Ids belong to this tracer. A
// nil tracer returns 0, which its Emit ignores.
func (tr *Tracer) Intern(typ, tag string) NameID {
	if tr == nil {
		return 0
	}
	k := eventName{typ, tag}
	if id, ok := tr.ids[k]; ok {
		return id
	}
	if len(tr.names) > math.MaxUint16 {
		panic("obs: more than 65536 distinct trace event names")
	}
	id := NameID(len(tr.names))
	//lint:ignore hotalloc grows once per distinct event name; callers keep the id and later calls hit the map
	tr.names = append(tr.names, k)
	tr.ids[k] = id
	return id
}

// Emit records one event named by an id from Intern. Nil-safe: unwired
// subsystems pay one branch.
func (tr *Tracer) Emit(name NameID, core int, ts, dur, arg uint64) {
	if tr == nil {
		return
	}
	r := record{ts: ts, dur: dur, arg: arg, core: int32(core), name: name}
	if len(tr.buf) < cap(tr.buf) {
		//lint:ignore hotalloc ring fill phase: the append stays within the preallocated cap
		tr.buf = append(tr.buf, r)
	} else {
		tr.buf[tr.next] = r
		if tr.next++; tr.next == len(tr.buf) {
			tr.next = 0
		}
		tr.wrapped = true
		tr.dropped++
	}
}

// Events returns a copy of the retained events in emission order.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	out := make([]Event, 0, len(tr.buf))
	if tr.wrapped {
		out = tr.appendEvents(out, tr.buf[tr.next:])
		return tr.appendEvents(out, tr.buf[:tr.next])
	}
	return tr.appendEvents(out, tr.buf)
}

// appendEvents rebuilds the Event each record stands for.
func (tr *Tracer) appendEvents(out []Event, rs []record) []Event {
	for _, r := range rs {
		n := tr.names[r.name]
		out = append(out, Event{TS: r.ts, Dur: r.dur, Core: int(r.core), Type: n.typ, Tag: n.tag, Arg: r.arg})
	}
	return out
}

// Len reports retained events; Dropped reports overwritten ones.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.buf)
}

// Dropped reports how many events the ring overwrote.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}

// WriteChromeTrace exports the retained events as Chrome trace-event JSON
// (the {"traceEvents": [...]} object form) viewable in Perfetto or
// chrome://tracing. Each simulated core is one track (tid); events with a
// duration render as complete ("X") slices, instants as "i" marks.
// Timestamps are virtual cycles converted to microseconds. A nil tracer
// writes an empty trace.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	var cpu float64
	if tr != nil {
		cpu = tr.CyclesPerUsec
	}
	events := tr.Events()
	// Name the core tracks. Counter samples render as pid-wide counter
	// tracks keyed by series name, not as core slices, so they do not
	// claim a tid.
	cores := map[int]bool{}
	for _, e := range events {
		if e.Type != EvCounter {
			cores[e.Core] = true
		}
	}
	cw := NewChromeWriter(w, cpu, cores)
	// Self-describing truncation record: a ring that wrapped kept only the
	// tail, and Perfetto should say so rather than show a silent gap.
	cw.Event(fmt.Sprintf(`{"name":"trace_stats","ph":"M","pid":0,"tid":0,"args":{"dropped":%d,"retained":%d}}`,
		tr.Dropped(), len(events)))
	for _, e := range events {
		if e.Type == EvCounter {
			cw.Event(fmt.Sprintf(`{"name":%s,"cat":"timeline","ph":"C","ts":%s,"pid":0,"args":{"value":%d}}`,
				strconv.Quote(e.Tag), cw.Usec(e.TS), e.Arg))
			continue
		}
		args := fmt.Sprintf(`{"cycles":%d,"arg":%d,"tag":%s}`, e.TS, e.Arg, strconv.Quote(e.Tag))
		if e.Dur > 0 {
			cw.Event(fmt.Sprintf(`{"name":%s,"cat":"sim","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":%s}`,
				strconv.Quote(e.Type), cw.Usec(e.TS), cw.Usec(e.Dur), e.Core, args))
		} else {
			cw.Event(fmt.Sprintf(`{"name":%s,"cat":"sim","ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":%s}`,
				strconv.Quote(e.Type), cw.Usec(e.TS), e.Core, args))
		}
	}
	return cw.Close()
}
