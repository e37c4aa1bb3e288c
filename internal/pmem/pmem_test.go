package pmem

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// newDevice makes a device and releases it when the test ends: nothing
// else unmaps its backing.
func newDevice(t testing.TB, cfg Config) *Device {
	d := New(cfg)
	t.Cleanup(d.Release)
	return d
}

// run executes fn on a single sim thread.
func run(fn func(t *sim.Thread)) uint64 {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	return e.Run()
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newDevice(t, Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		src := []byte("persistent memory payload")
		d.WriteNT(th, 4096, src)
		got := make([]byte, len(src))
		d.Read(th, 4096, got)
		if !bytes.Equal(got, src) {
			t.Errorf("round trip mismatch: %q", got)
		}
	})
	if d.Stats.BytesWritten == 0 || d.Stats.BytesRead == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := newDevice(t, Config{Size: 1 << 16})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	run(func(th *sim.Thread) {
		d.Read(th, 1<<16-8, make([]byte, 64))
	})
}

func TestNTStoreCostsMoreThanRead(t *testing.T) {
	d := newDevice(t, Config{Size: 1 << 22})
	buf := make([]byte, 1<<20)
	wr := run(func(th *sim.Thread) { d.WriteNT(th, 0, buf) })
	d2 := newDevice(t, Config{Size: 1 << 22})
	rd := run(func(th *sim.Thread) { d2.Read(th, 0, buf) })
	if wr <= rd {
		t.Fatalf("nt-store (%d cycles) should cost more than read (%d): Optane write bandwidth is lower", wr, rd)
	}
}

func TestZeroClears(t *testing.T) {
	d := newDevice(t, Config{Size: 1 << 20})
	run(func(th *sim.Thread) {
		d.WriteNT(th, 0, bytes.Repeat([]byte{0xAB}, 8192))
		d.Zero(th, 0, 8192)
		got := make([]byte, 8192)
		d.Load(0, got)
		for i, b := range got {
			if b != 0 {
				t.Fatalf("byte %d not zeroed: %#x", i, b)
				return
			}
		}
	})
}

func TestPersistenceTracking(t *testing.T) {
	d := newDevice(t, Config{Size: 1 << 20, TrackPersistence: true})
	run(func(th *sim.Thread) {
		payload := bytes.Repeat([]byte{0x5A}, 128)

		// Cached stores without flush do not survive a crash.
		d.WriteCached(th, 0, payload)
		if d.DirtyLineCount() != 2 {
			t.Errorf("dirty lines = %d, want 2", d.DirtyLineCount())
		}

		// Flushed + fenced stores survive.
		d.WriteCached(th, 4096, payload)
		d.Flush(th, 4096, 128)
		d.Fence(th)

		// NT store + fence survives.
		d.WriteNT(th, 8192, payload)
		d.Fence(th)

		d.Crash()

		if b := d.Bytes(0, 1); b[0] != 0xCC {
			t.Errorf("unflushed line survived crash: %#x", b[0])
		}
		if !bytes.Equal(d.Bytes(4096, 128), payload) {
			t.Error("flushed+fenced data lost in crash")
		}
		if !bytes.Equal(d.Bytes(8192, 128), payload) {
			t.Error("nt-stored+fenced data lost in crash")
		}
	})
}

func TestFlushWithoutFenceUnsafe(t *testing.T) {
	d := newDevice(t, Config{Size: 1 << 20, TrackPersistence: true})
	run(func(th *sim.Thread) {
		d.WriteCached(th, 0, []byte{1, 2, 3, 4})
		d.Flush(th, 0, 4)
		// No fence: the adversarial crash model drops it.
		d.Crash()
		if d.Bytes(0, 1)[0] != 0xCC {
			t.Error("flushed-unfenced line should not be trusted after crash")
		}
	})
}

func TestBandwidthNoSelfInterference(t *testing.T) {
	// A single thread can never outrun the device: its own per-thread
	// bandwidth is below the device bandwidth, so it must see no stall.
	d := newDevice(t, Config{Size: 1 << 26})
	run(func(th *sim.Thread) {
		for i := 0; i < 64; i++ {
			d.WriteNT(th, mem.PhysAddr(i*65536), make([]byte, 65536))
		}
	})
	if d.Stats.ThrottleStall != 0 {
		t.Fatalf("single writer stalled %d cycles", d.Stats.ThrottleStall)
	}
}

func TestBandwidthInterference(t *testing.T) {
	// Eight concurrent writers demand ~8×2.3 GB/s, above the ~13 GB/s
	// device write budget: some must stall on the shared channel.
	d := newDevice(t, Config{Size: 1 << 26})
	e := sim.New()
	for w := 0; w < 8; w++ {
		base := mem.PhysAddr(w * (4 << 20))
		e.Go("w", w, 0, func(th *sim.Thread) {
			buf := make([]byte, 65536)
			for i := 0; i < 32; i++ {
				d.WriteNT(th, base+mem.PhysAddr(i*65536), buf)
				th.Yield() // interleave with the other writers
			}
		})
	}
	e.Run()
	if d.Stats.ThrottleStall == 0 {
		t.Fatal("8 concurrent writers saw no interference on the shared channel")
	}
}

// TestZeroAfterCrashClearsCorruption pins that Crash marks the pages it
// corrupts: a line it fills with 0xCC may sit on a page no store marked
// (StreamNT writes no bytes; a whole-page Zero unmarks its page before
// the fence), and a later Zero must still clear it.
func TestZeroAfterCrashClearsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 256)
	for _, tc := range []struct {
		name   string
		before func(th *sim.Thread, d *Device) // runs on page 1 before the crash
	}{
		{"streamnt", func(th *sim.Thread, d *Device) { d.StreamNT(th, mem.PageSize, mem.PageSize) }},
		{"zero-unwritten", func(th *sim.Thread, d *Device) { d.Zero(th, mem.PageSize, mem.PageSize) }},
		{"zero-written", func(th *sim.Thread, d *Device) {
			d.WriteNT(th, mem.PageSize, payload)
			d.Fence(th)
			d.Zero(th, mem.PageSize, mem.PageSize)
		}},
		{"writecached", func(th *sim.Thread, d *Device) { d.WriteCached(th, mem.PageSize+64, payload) }},
		{"writecached-8", func(th *sim.Thread, d *Device) { d.WriteCached(th, mem.PageSize+64, payload[:8]) }},
		{"writecached-zero", func(th *sim.Thread, d *Device) {
			d.WriteCached(th, mem.PageSize+64, payload)
			d.Zero(th, mem.PageSize, mem.PageSize)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDevice(t, Config{Size: 4 * mem.PageSize, TrackPersistence: true})
			got := make([]byte, mem.PageSize)
			run(func(th *sim.Thread) {
				tc.before(th, d)
				d.Crash()
				d.Read(th, mem.PageSize, got)
				if bytes.IndexByte(got, 0xCC) < 0 {
					t.Error("crash left the page intact; the case tests nothing")
				}
				d.Zero(th, mem.PageSize, mem.PageSize)
				d.Read(th, mem.PageSize, got)
			})
			if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
				t.Fatalf("byte %d reads %#x after crash and Zero, want 0", i, got[i])
			}
		})
	}
}

// TestDeviceZeroAlloc pins the device's runtime paths at zero
// allocations with persistence tracking off, on an engine attached to a
// cycle account, flat and across two nodes: once each charge path is
// interned, Read, WriteNT, Zero and the bandwidth bucket allocate nothing,
// and so do a Discard and a rewrite that takes the freed frame back, an
// 8-byte cached store to a page that holds one slab line, a Read of that
// page, a run of 64 cached words, and a Word read from a dense page, a
// slab line and a zero page.
func TestDeviceZeroAlloc(t *testing.T) {
	for _, tp := range []*topo.Topology{nil, topo.New(2, 1)} {
		d := newDevice(t, Config{Size: 1 << 20, Topo: tp})
		e := sim.New()
		obs.New(64).Attach(e)
		e.Go("t", 1, 0, func(th *sim.Thread) {
			buf := make([]byte, mem.PageSize)
			far := mem.PhysAddr(d.Size() - mem.PageSize) // node 1's bank when split
			sparse := mem.PhysAddr(4*mem.PageSize + 72)  // a stamp in line 1 of page 4
			stamp := buf[:8]
			words := make([]uint64, 64)
			for _, s := range []struct {
				name string
				step func()
			}{
				{"Read", func() { d.Read(th, 0, buf); d.Read(th, far, buf) }},
				{"WriteNT", func() { d.WriteNT(th, 0, buf); d.WriteNT(th, far, buf) }},
				{"Zero", func() { d.Zero(th, 0, mem.PageSize); d.Zero(th, far, 100) }},
				{"Discard and rewrite", func() { d.Discard(0, mem.PageSize); d.WriteNT(th, 0, buf) }},
				{"WriteCached sparse", func() { d.WriteCached(th, sparse, stamp) }},
				{"Read sparse", func() { d.Read(th, sparse&^(mem.PageSize-1), buf) }},
				{"WriteCachedWords", func() { WriteCachedWords(d, th, far+64, words) }},
				{"Word", func() { _, _, _ = d.Word(0), d.Word(sparse&^7), d.Word(8*mem.PageSize) }},
				{"BWReadOn", func() { d.BWReadOn(th, d.NodeOf(far), mem.PageSize) }},
				{"BWWriteOn", func() { d.BWWriteOn(th, d.NodeOf(far), mem.PageSize) }},
			} {
				s.step() // warm: interned charge paths
				if n := testing.AllocsPerRun(200, s.step); n != 0 {
					t.Errorf("%d-node %s allocates %v times per run, want 0", d.NodeCount(), s.name, n)
				}
			}
		})
		e.Run()
	}
}

// FuzzDeviceMatchesReference drives a small device through random
// stores, streams, raw-slice writes, unaligned page-spanning zeroes,
// uncharged loads, cached word runs and discards, and checks after every
// step that its content matches a plain byte slice. Each step is six
// bytes: kind, address (2), length (2), fill. Sub-line stores keep a
// page's one line in the slab; wider stores and a second line make the
// page dense and give it a frame. Raw-slice writes (kind 3) go a page at
// a time. A word run (kind 6) stores the 8-byte words
// fill*0x0101010101010101 ^ i from the address rounded down to 8, as many
// as the length covers. A discard (kind 7) drops every page the range
// touches, and their frames go to later dense pages. A word read (kind 8)
// reads the word at the address rounded down to 8 and must match the
// reference without changing any page's state or the slab. A twin
// device takes each run as one 8-byte WriteCached per word and must end
// with the same content, Stats, dirty lines (what a crash corrupts) and
// thread rows and clock.
func FuzzDeviceMatchesReference(f *testing.F) {
	const size = 8 * mem.PageSize
	// A sub-line store, then another in the same line, then a page load.
	f.Add([]byte{1, 0x10, 0x10, 0x07, 0x00, 0x5A, 0, 0x18, 0x10, 0x07, 0x00, 0x11, 5, 0x00, 0x10, 0xFF, 0x0F, 0})
	// A store that crosses a line boundary.
	f.Add([]byte{0, 0x3C, 0x20, 0x07, 0x00, 0x22, 5, 0x30, 0x20, 0x1F, 0x00, 0})
	// A raw-slice stamp, then a cached store to a second line.
	f.Add([]byte{3, 0x00, 0x30, 0x07, 0x00, 0x77, 1, 0x80, 0x30, 0x07, 0x00, 0x78, 5, 0x00, 0x30, 0xFF, 0x00, 0})
	// Partial-line zeroes, one across a page boundary, then the whole line.
	f.Add([]byte{1, 0x00, 0x40, 0x3F, 0x00, 0x33, 4, 0x10, 0x40, 0x0F, 0x00, 0, 4, 0xF0, 0x3F, 0x2F, 0x00, 0, 4, 0x00, 0x40, 0x3F, 0x00, 0})
	// Raw slices within one sparse line, then a whole-page slice.
	f.Add([]byte{3, 0x20, 0x50, 0x03, 0x00, 0x44, 3, 0x24, 0x50, 0x03, 0x00, 0x45, 3, 0x00, 0x50, 0xFF, 0x0F, 0x46})
	// A freed line's slot reused by another page.
	f.Add([]byte{1, 0x00, 0x60, 0x07, 0x00, 0x66, 4, 0x00, 0x60, 0xFF, 0x0F, 0, 1, 0x40, 0x70, 0x07, 0x00, 0x67, 5, 0x00, 0x60, 0xFF, 0x1F, 0})
	f.Add([]byte{0, 0x00, 0x00, 0xFF, 0x0F, 0xAA, 4, 0x00, 0x00, 0x0F, 0x00, 0, 4, 0x00, 0x00, 0xFF, 0x0F, 0})
	f.Add([]byte{0, 0x10, 0x00, 0x00, 0x20, 0xAB, 4, 0x08, 0x00, 0x00, 0x30, 0})
	f.Add([]byte{1, 0xF0, 0x0F, 0x40, 0x00, 0x11, 4, 0x00, 0x10, 0x00, 0x10, 0, 4, 0xFF, 0x0F, 0x02, 0x00, 0})
	f.Add([]byte{3, 0x05, 0x30, 0x00, 0x01, 0x77, 2, 0x00, 0x30, 0x00, 0x10, 0, 4, 0x00, 0x30, 0x00, 0x08, 0, 4, 0x00, 0x30, 0x00, 0x10, 0})
	f.Add([]byte{0, 0x00, 0x00, 0xFF, 0x7F, 0x01, 4, 0x01, 0x00, 0xFE, 0x7F, 0, 1, 0x00, 0x70, 0x00, 0x10, 0x02, 4, 0x00, 0x00, 0x00, 0x80, 0})
	// A word run across a line boundary of a zero page, then one inside
	// a sparse page's own line, then one that promotes it.
	f.Add([]byte{6, 0x30, 0x10, 0x1F, 0x00, 0x5B, 1, 0x00, 0x20, 0x07, 0x00, 0x21, 6, 0x08, 0x20, 0x0F, 0x00, 0x22, 6, 0x40, 0x20, 0x0F, 0x00, 0, 5, 0x00, 0x10, 0xFF, 0x1F, 0})
	// A one-word run, and a whole-page run that ends at the device's end.
	f.Add([]byte{6, 0x05, 0x50, 0x00, 0x00, 0x01, 6, 0x00, 0x70, 0xFF, 0x0F, 0xEE, 4, 0x00, 0x70, 0x00, 0x08, 0})
	// A dense page discarded, its frame reused by a partly written page,
	// then a sparse page discarded and both pages stored to again.
	f.Add([]byte{0, 0x00, 0x10, 0xFF, 0x0F, 0xAA, 7, 0x20, 0x10, 0x00, 0x00, 0, 0, 0x10, 0x20, 0x7F, 0x00, 0xBB, 1, 0x08, 0x30, 0x07, 0x00, 0xCC, 7, 0x00, 0x30, 0x00, 0x00, 0, 1, 0x00, 0x10, 0x07, 0x00, 0xDD, 0, 0x00, 0x30, 0xFF, 0x01, 0xEE})
	// Word reads of a zero page, a sparse page's own line and another
	// line of it, then of the page once dense.
	f.Add([]byte{8, 0x08, 0x10, 0, 0, 0, 1, 0x48, 0x10, 0x07, 0x00, 0x3C, 8, 0x48, 0x10, 0, 0, 0, 8, 0x08, 0x10, 0, 0, 0, 0, 0x00, 0x10, 0x0F, 0x02, 0x3D, 8, 0x48, 0x10, 0, 0, 0, 8, 0xF8, 0x1F, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		play := func(wordRuns bool) (*Device, *sim.Thread) {
			d := newDevice(t, Config{Size: size, TrackPersistence: true})
			ref := make([]byte, size)
			got := make([]byte, size)
			e := sim.New()
			th := e.Go("t", 0, 0, func(th *sim.Thread) {
				for i := 0; i+6 <= len(ops); i += 6 {
					op := ops[i : i+6]
					addr := uint64(binary.LittleEndian.Uint16(op[1:])) % size
					n := 1 + uint64(binary.LittleEndian.Uint16(op[3:]))%(size-addr)
					fill := bytes.Repeat([]byte{op[5]}, int(n))
					switch op[0] % 9 {
					case 0:
						d.WriteNT(th, mem.PhysAddr(addr), fill)
						copy(ref[addr:], fill)
					case 1:
						d.WriteCached(th, mem.PhysAddr(addr), fill)
						copy(ref[addr:], fill)
					case 2:
						d.StreamNT(th, mem.PhysAddr(addr), n)
					case 3:
						for a := addr; a < addr+n; {
							m := min(addr+n, (a/mem.PageSize+1)*mem.PageSize) - a
							copy(d.Bytes(mem.PhysAddr(a), m), fill[:m])
							a += m
						}
						copy(ref[addr:], fill)
					case 4:
						d.Zero(th, mem.PhysAddr(addr), n)
						clear(ref[addr : addr+n])
					case 5:
						d.Load(mem.PhysAddr(addr), got[:n])
						if !bytes.Equal(got[:n], ref[addr:addr+n]) {
							t.Errorf("step %d: Load [%#x,+%d) differs from the reference", i/6, addr, n)
							return
						}
					case 6:
						addr &^= 7
						words := make([]uint64, min((n+7)/8, (size-addr)/8))
						for j := range words {
							words[j] = uint64(op[5])*0x0101010101010101 ^ uint64(j)
							binary.LittleEndian.PutUint64(ref[addr+8*uint64(j):], words[j])
						}
						if wordRuns {
							WriteCachedWords(d, th, mem.PhysAddr(addr), words)
							break
						}
						for j, w := range words {
							d.WriteCached(th, mem.PhysAddr(addr+8*uint64(j)), binary.LittleEndian.AppendUint64(nil, w))
						}
					case 7:
						lo := addr &^ (mem.PageSize - 1)
						hi := (addr + n + mem.PageSize - 1) &^ (mem.PageSize - 1)
						d.Discard(mem.PhysAddr(lo), hi-lo)
						clear(ref[lo:hi])
					case 8:
						addr &^= 7
						p, lines := d.page[addr/mem.PageSize], len(d.lines)
						if got, want := d.Word(mem.PhysAddr(addr)), binary.LittleEndian.Uint64(ref[addr:]); got != want {
							t.Errorf("step %d: Word(%#x) = %#x, want %#x", i/6, addr, got, want)
							return
						}
						if d.page[addr/mem.PageSize] != p || len(d.lines) != lines {
							t.Errorf("step %d: Word(%#x) changed device state", i/6, addr)
							return
						}
					}
					// Read, not Bytes: Bytes would make every page dense.
					d.Read(th, 0, got)
					if !bytes.Equal(got, ref) {
						t.Errorf("step %d (kind %d, [%#x,+%d)): device content differs from the reference", i/6, op[0]%9, addr, n)
						return
					}
				}
			})
			e.Run()
			return d, th
		}
		d, th := play(true)
		tw, tth := play(false)
		got, want := make([]byte, size), make([]byte, size)
		d.Load(0, got)
		tw.Load(0, want)
		switch {
		case !bytes.Equal(got, want):
			t.Error("content differs between word runs and single stores")
		case d.Stats != tw.Stats || *d.NodeStats(0) != *tw.NodeStats(0):
			t.Errorf("word runs: stats %+v; single stores: %+v", d.Stats, tw.Stats)
		case d.DirtyLineCount() != tw.DirtyLineCount():
			t.Errorf("word runs leave %d dirty lines, single stores %d", d.DirtyLineCount(), tw.DirtyLineCount())
		case th.Now() != tth.Now() || !reflect.DeepEqual(th.Rows(), tth.Rows()):
			t.Errorf("word runs: clock %d, rows %v; single stores: clock %d, rows %v", th.Now(), th.Rows(), tth.Now(), tth.Rows())
		}
		// A crash corrupts the dirty lines: the same ones on both.
		d.Crash()
		tw.Crash()
		d.Load(0, got)
		tw.Load(0, want)
		if !bytes.Equal(got, want) {
			t.Error("a crash corrupts different lines after word runs and after single stores")
		}
	})
}

// framesInUse counts the frames d's dense pages hold.
func framesInUse(d *Device) int {
	n := 0
	for _, s := range d.page {
		if s >= pageFrame {
			n++
		}
	}
	return n
}

// TestFramesFollowLivePages pins that host memory follows the pages that
// hold content: Discard and a whole-page Zero each give a page's frame
// back, a later dense page takes a freed frame before a new one, and a
// reused frame reads zero wherever the new page was not written.
func TestFramesFollowLivePages(t *testing.T) {
	d := newDevice(t, Config{Size: 16 * mem.PageSize})
	page := bytes.Repeat([]byte{0xAB}, mem.PageSize)
	got := make([]byte, mem.PageSize)
	run(func(th *sim.Thread) {
		for p := mem.PhysAddr(0); p < 4; p++ {
			d.WriteNT(th, p*mem.PageSize, page)
		}
		if n := framesInUse(d); n != 4 || d.frames != 4 {
			t.Fatalf("4 written pages hold %d frames of %d taken, want 4 of 4", n, d.frames)
		}
		d.Discard(mem.PageSize, 2*mem.PageSize)
		if n := framesInUse(d); n != 2 {
			t.Fatalf("after discarding 2 of 4 pages, %d frames in use, want 2", n)
		}
		d.Zero(th, 0, mem.PageSize)
		if n := framesInUse(d); n != 1 {
			t.Fatalf("after zeroing a page whole, %d frames in use, want 1", n)
		}
		d.Zero(th, 3*mem.PageSize, mem.PageSize/2)
		if n := framesInUse(d); n != 1 {
			t.Fatalf("zeroing half a page freed its frame: %d frames in use, want 1", n)
		}

		// Three freed frames serve the next three dense pages, each read
		// zero past the 128 bytes written; a fourth page takes a new one.
		for p := mem.PhysAddr(8); p < 12; p++ {
			d.WriteNT(th, p*mem.PageSize+64, page[:128])
			d.Load(p*mem.PageSize, got)
			for i, b := range got {
				want := byte(0)
				if i >= 64 && i < 192 {
					want = 0xAB
				}
				if b != want {
					t.Fatalf("page %d byte %d reads %#x, want %#x", p, i, b, want)
				}
			}
		}
		if n := framesInUse(d); n != 5 || d.frames != 5 {
			t.Fatalf("after 4 more dense pages, %d frames in use of %d taken, want 5 of 5", n, d.frames)
		}
		for p := mem.PhysAddr(0); p < 3; p++ {
			d.Load(p*mem.PageSize, got)
			if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
				t.Fatalf("freed page %d byte %d reads %#x, want 0", p, i, got[i])
			}
		}
	})
}

// TestDiscardUntracksLines pins that discarded lines leave the
// persistence-tracking sets, so a crash finds the range zero rather than
// corrupted, and that Discard charges and counts nothing.
func TestDiscardUntracksLines(t *testing.T) {
	d := newDevice(t, Config{Size: 4 * mem.PageSize, TrackPersistence: true})
	got := make([]byte, mem.PageSize)
	var before, after uint64
	run(func(th *sim.Thread) {
		d.WriteCached(th, mem.PageSize, bytes.Repeat([]byte{0x5A}, mem.PageSize))
		d.Flush(th, mem.PageSize, 64)
		stats := d.Stats
		before = th.Now()
		d.Discard(mem.PageSize, mem.PageSize)
		after = th.Now()
		if d.Stats != stats {
			t.Errorf("Discard moved Stats: %+v, was %+v", d.Stats, stats)
		}
		if n := d.DirtyLineCount(); n != 0 {
			t.Fatalf("%d dirty lines left after Discard, want 0", n)
		}
		d.Crash()
		d.Load(mem.PageSize, got)
	})
	if after != before {
		t.Errorf("Discard charged %d cycles, want 0", after-before)
	}
	if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("byte %d of a discarded page reads %#x after a crash, want 0", i, got[i])
	}
}

// TestNodeLabelsMintedOnce: a multi-node device mints its pmem.node<i>
// frame labels when it is built, once per name, so twenty more boots of
// a 2-node device leave the process's label count where the first left
// it.
func TestNodeLabelsMintedOnce(t *testing.T) {
	boot := func() {
		d := New(Config{Size: 1 << 20, Topo: topo.New(2, 1)})
		d.Release()
	}
	boot()
	n := sim.NumLabels()
	for i := 0; i < 20; i++ {
		boot()
	}
	if got := sim.NumLabels(); got != n {
		t.Fatalf("twenty more 2-node devices grew the label table from %d to %d", n, got)
	}
}
