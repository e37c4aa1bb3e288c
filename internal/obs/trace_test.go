package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// refRing is the reference model of the tracer: a ring of whole Events
// that overwrites its oldest entry when full.
type refRing struct {
	buf     []Event
	next    int
	dropped uint64
}

func (r *refRing) emit(e Event, capacity int) {
	if len(r.buf) < capacity {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	r.next = (r.next + 1) % capacity
	r.dropped++
}

func (r *refRing) events() []Event {
	return append(append([]Event{}, r.buf[r.next:]...), r.buf[:r.next]...)
}

// TestTracerMatchesReferenceRing wraps the ring several times with span
// slices, instants and counter samples over interleaved names, and checks
// that the rebuilt events equal a ring of whole Events at every step.
func TestTracerMatchesReferenceRing(t *testing.T) {
	const capacity = 7
	names := []struct{ typ, tag string }{
		{"fault.minor", ""},
		{EvCounter, "cycles"},
		{"syscall.read", ""},
		{EvCounter, "gauge.rq.depth"},
		{"tlb_shootdown", "full"},
		{EvCounter, "tlb.hits"},
	}
	tr := NewTracer(capacity)
	var ref refRing
	for i := 0; i < 5*capacity+3; i++ {
		n := names[(i*5)%len(names)]
		e := Event{TS: uint64(i) * 100, Core: i % 3, Type: n.typ, Tag: n.tag, Arg: uint64(i * i)}
		if n.typ == EvCounter {
			e.Core = 0
		} else if i%2 == 0 {
			e.Dur = uint64(i + 1)
		}
		tr.Emit(tr.Intern(n.typ, n.tag), e.Core, e.TS, e.Dur, e.Arg)
		ref.emit(e, capacity)
		if got, want := tr.Events(), ref.events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d emits:\n got  %+v\n want %+v", i+1, got, want)
		}
	}
	if tr.Len() != capacity || tr.Dropped() != ref.dropped {
		t.Fatalf("len=%d dropped=%d, want %d and %d", tr.Len(), tr.Dropped(), capacity, ref.dropped)
	}
	if len(tr.names) != len(names) {
		t.Fatalf("name table holds %d entries for %d distinct names", len(tr.names), len(names))
	}
}

// TestTracerEmitZeroAlloc pins Emit at zero allocations once a name is
// interned, in the fill phase and after the ring wraps.
func TestTracerEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(64)
	span := tr.Intern("fault.minor", "")
	ctr := tr.Intern(EvCounter, "cycles")
	var ts uint64
	emit := func() {
		ts++
		tr.Emit(span, 1, ts, 10, 3)
		tr.Emit(ctr, 0, ts, 0, ts)
	}
	emit()
	if allocs := testing.AllocsPerRun(200, emit); allocs != 0 {
		t.Fatalf("Emit allocates %v times per run, want 0", allocs)
	}
	if tr.Dropped() == 0 {
		t.Fatal("ring never wrapped: the overwrite path went unchecked")
	}
}

// TestTraceRecordHoldsNoPointers walks the ring's element type: a record
// with no pointer, string, slice, map or interface field is one the
// garbage collector never scans, and it stays 32 bytes.
func TestTraceRecordHoldsNoPointers(t *testing.T) {
	elem := reflect.TypeOf(NewTracer(1).buf).Elem()
	if err := pointerFree(elem, elem.Name()); err != nil {
		t.Fatal(err)
	}
	if elem.Size() != 32 {
		t.Fatalf("%s is %d bytes, want 32", elem, elem.Size())
	}
}

// pointerFree reports the first field of typ, named by path, whose kind
// holds a pointer.
func pointerFree(typ reflect.Type, path string) error {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	case reflect.Array:
		return pointerFree(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if err := pointerFree(f.Type, path+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
}
