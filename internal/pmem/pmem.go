// Package pmem simulates byte-addressable persistent memory (Intel
// Optane DCPMM in AppDirect mode, as used by the DaxVM paper).
//
// The device provides real storage (host memory) addressed by simulated
// physical addresses, plus the persistence semantics that PMem software
// depends on: regular (cached) stores are not durable until flushed with
// clwb+fence, while non-temporal stores become durable at the next fence.
//
// Content is sparse, kept per page in one of three states. A zero page
// reads zero and holds no host memory. A page whose stores all fell in
// one cache line keeps that line in a slab of 64-byte lines, so a record
// stamp (an 8-byte key at the head of each record) costs a slab line,
// not a 4 KiB host page. Any other store makes its page dense: the page
// takes a frame, a 4 KiB page of an anonymous mapping used as an arena,
// and a sparse page's line moves there. A page that is zeroed whole, or
// discarded (Discard, for storage the simulation has freed), gives its
// frame back to a free list that later dense pages take from, so host
// memory follows the pages live at once, not every page ever written.
// Zero clears only what a page holds, so zeroing a range nothing wrote
// (fallocate, the pre-zero daemon) costs its simulated charge but touches
// no host memory.
//
// The physical address space is striped across per-NUMA-node banks (one
// DIMM set per socket). Each bank has its own bandwidth token bucket, so
// heavy background writers (DaxVM's pre-zeroing daemon) interfere with
// foreground traffic on the same node the way they do on real Optane,
// while traffic to different sockets proceeds independently. Accesses
// that cross the socket interconnect pay the FAST '20 remote-Optane
// penalties on top of the local rates. With a single-node topology (the
// default) the device collapses to the original flat model, charge for
// charge.
package pmem

import (
	"encoding/binary"
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// Device is one simulated PMem module set, possibly spanning several
// NUMA nodes.
type Device struct {
	size uint64
	// data is the arena of dense pages' frames: frame k is the 4 KiB at
	// k*PageSize. frames counts the frames ever handed out; the rest were
	// never touched and read zero. A free frame holds, in its first word,
	// the free list's next link, and freeFrames is 1 + the list's head
	// (0 when empty). A frame is cleared when it is taken again.
	data       []byte
	mapped     bool // data is a mapping newBacking made, not heap memory
	frames     uint32
	freeFrames uint32
	// page holds each page's state: pageZero, 1 + the index in lines of
	// the page's one written cache line, or pageFrame + the page's frame.
	page []uint32
	// lines is the slab of sparse pages' lines. Free slots form a list
	// through sparseLine.line; freeLines is 1 + its head, 0 when empty.
	lines     []sparseLine
	freeLines uint32

	// Persistence tracking (enabled for crash tests): the set of dirty
	// cache lines written with cached stores and not yet flushed, and the
	// lines flushed but not yet fenced. Tracked device-wide; durability
	// does not depend on which socket holds the line.
	trackPersistence bool
	dirtyLines       map[uint64]struct{} // line index -> written, unflushed
	flushedLines     map[uint64]struct{} // clwb issued, fence pending

	tp       *topo.Topology
	bankSize uint64
	banks    []bank
	attrs    []sim.Label // "pmem.node0", ... attribution frames (multi-node only)

	Stats Stats
}

// Charge labels of the device's data and persistence paths.
// "remote_read"/"remote_write" double as the span layer's remote_numa
// wait kind and "bw_stall" as its pmem_bw one.
var (
	labelPMemRead    = sim.NewLabel("pmem_read")
	labelNTStore     = sim.NewLabel("ntstore")
	labelCachedStore = sim.NewLabel("cached_store")
	labelZero        = sim.NewLabel("zero")
	labelClwb        = sim.NewLabel("clwb")
	labelFence       = sim.NewLabel("fence")
	labelRemoteRead  = sim.NewLabel("remote_read")
	labelRemoteWrite = sim.NewLabel("remote_write")
	labelBWStall     = sim.NewLabel("bw_stall")
)

// Page states (Device.page): pageZero, 1 + a slab index below
// pageFrame, or pageFrame + a frame at or above it. A device has fewer
// pages than pageFrame, so slab indices and frames both fit.
const (
	pageZero  = 0
	pageFrame = 1 << 31
)

// sparseLine is the one cache line a sparsely written page holds; every
// other byte of the page reads zero.
type sparseLine struct {
	data [mem.CacheLineSize]byte
	// line is the line's index within its page; on a free slot, 1 + the
	// next free slot's index (0 ends the list).
	line uint32
}

// bank is the per-node slice of the device: its own channel occupancy
// and traffic counters. The data itself lives in the shared slice.
type bank struct {
	bw    tokenBucket
	stats Stats
}

// Stats aggregates device traffic.
type Stats struct {
	BytesRead     uint64
	BytesWritten  uint64
	BytesZeroed   uint64
	NTStores      uint64
	CachedStores  uint64
	Clwbs         uint64
	Fences        uint64
	ThrottleStall uint64 // cycles foreground ops stalled on the bucket
	BusyCycles    uint64 // cycles the bank's channels were occupied by transfers
}

// Config controls device construction.
type Config struct {
	// Size is the device capacity in bytes.
	Size uint64
	// TrackPersistence enables per-line durability tracking for crash
	// simulation tests (costly; off for benchmarks).
	TrackPersistence bool
	// Topo places the device's DIMMs: capacity is split evenly across
	// the topology's nodes. nil means a flat single-node device.
	Topo *topo.Topology
}

// New creates a device. Backing memory is allocated lazily by the host OS
// (untouched pages cost nothing), so multi-GiB devices are cheap until
// written, however many a process creates (see newBacking). Content is
// sparse: a page holding one written cache line costs a slab line, a
// dense page costs one frame while it holds content, and Zero touches
// only what a page holds.
func New(cfg Config) *Device {
	if cfg.Size == 0 || !mem.IsAligned(cfg.Size, mem.PageSize) || cfg.Size/mem.PageSize >= pageFrame {
		panic(fmt.Sprintf("pmem: bad device size %d", cfg.Size))
	}
	nodes := 1
	if cfg.Topo.Multi() {
		nodes = cfg.Topo.Nodes()
	}
	d := &Device{
		size:             cfg.Size,
		trackPersistence: cfg.TrackPersistence,
		tp:               cfg.Topo,
		bankSize:         mem.AlignedUp(cfg.Size/uint64(nodes), mem.PageSize),
		banks:            make([]bank, nodes),
		page:             make([]uint32, cfg.Size/mem.PageSize),
	}
	d.data = newBacking(d, cfg.Size)
	if nodes > 1 {
		d.attrs = make([]sim.Label, nodes)
		for i := range d.attrs {
			d.attrs[i] = sim.NewLabel(fmt.Sprintf("pmem.node%d", i))
		}
	}
	if cfg.TrackPersistence {
		d.dirtyLines = make(map[uint64]struct{})
		d.flushedLines = make(map[uint64]struct{})
	}
	return d
}

// Release returns the device's host memory: the mapping and the
// sparse-line slab. It is the only way a mapped device's frames go back;
// no finalizer does it, and mapped memory does not count toward the Go
// heap, so a process that builds one machine after another must release
// each finished device (kernel.Kernel.Close does). The device must not be
// read or written afterwards; its Stats stay readable.
func (d *Device) Release() {
	d.releaseBacking()
	d.page, d.lines, d.freeLines = nil, nil, 0
}

// Size returns the device capacity in bytes.
func (d *Device) Size() uint64 { return d.size }

// Pages returns the device capacity in base pages.
func (d *Device) Pages() uint64 { return d.size / mem.PageSize }

// NodeCount returns how many NUMA-node banks the device spans.
func (d *Device) NodeCount() int { return len(d.banks) }

// NodeOf returns the NUMA node whose DIMMs hold addr.
func (d *Device) NodeOf(addr mem.PhysAddr) mem.NodeID {
	n := uint64(addr) / d.bankSize
	if n >= uint64(len(d.banks)) {
		n = uint64(len(d.banks)) - 1
	}
	return mem.NodeID(n)
}

// NodeOfPFN is NodeOf for a page frame number.
func (d *Device) NodeOfPFN(pfn mem.PFN) mem.NodeID { return d.NodeOf(pfn.Addr()) }

// NodeStats returns the traffic counters of one node's bank.
func (d *Device) NodeStats(node int) *Stats { return &d.banks[node].stats }

func (d *Device) multi() bool { return len(d.banks) > 1 }

// Bytes returns the bytes that hold [addr, addr+n), a range within one
// page, for the caller to read or write through. A range within one cache
// line of a page that is not dense is served from the page's slab line (a
// zero page gets one); any other range makes its page dense. The caller
// is responsible for charging access costs; use the typed accessors where
// possible, and Load to read without creating device state. The slice is
// valid only until the next call on d: a later store may move a slab line
// into a frame or grow the slab, a Zero or Discard may hand the frame to
// another page, and Release unmaps the arena.
func (d *Device) Bytes(addr mem.PhysAddr, n uint64) []byte {
	d.check(addr, n)
	if off := uint64(addr); n > 0 && off/mem.PageSize != (off+n-1)/mem.PageSize {
		panic(fmt.Sprintf("pmem: Bytes [%#x,+%d) spans pages", addr, n))
	}
	return d.content(uint64(addr), n)
}

// Load copies the content at addr into buf, charging nothing and leaving
// device state as it was: integrity checks read media through it without
// giving an unwritten page a slab line or a frame.
func (d *Device) Load(addr mem.PhysAddr, buf []byte) {
	d.check(addr, uint64(len(buf)))
	d.load(uint64(addr), buf)
}

// Word returns the 8-byte little-endian word at addr, which must be
// 8-byte aligned, from a page's frame, its slab line or a zero page. Like
// Load it charges nothing and leaves device state as it was, and it
// allocates nothing: a persistent page-table node reads its entries
// through it.
func (d *Device) Word(addr mem.PhysAddr) uint64 {
	d.check(addr, 8)
	if addr%8 != 0 {
		panic("pmem: word is not 8-byte aligned")
	}
	off := uint64(addr)
	switch s := d.page[off/mem.PageSize]; {
	case s >= pageFrame:
		return binary.LittleEndian.Uint64(d.frame(s - pageFrame)[off%mem.PageSize:])
	case s != pageZero && d.lines[s-1].line == uint32(off%mem.PageSize/mem.CacheLineSize):
		return binary.LittleEndian.Uint64(d.lines[s-1].data[off%mem.CacheLineSize:])
	}
	return 0
}

// Discard drops the content of [addr, addr+n) without a charge, as for
// storage the simulation has freed: the range reads zero afterwards, a
// page it covers whole gives back its frame or slab line, and its lines
// leave the persistence-tracking sets, so a crash finds nothing there to
// corrupt.
func (d *Device) Discard(addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	d.zeroContent(uint64(addr), n)
	if d.trackPersistence && n > 0 {
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			delete(d.dirtyLines, l)
			delete(d.flushedLines, l)
		}
	}
}

// store copies buf to [off, off+len(buf)) a page at a time.
func (d *Device) store(off uint64, buf []byte) {
	for len(buf) > 0 {
		m := min(uint64(len(buf)), mem.PageSize-off%mem.PageSize)
		copy(d.content(off, m), buf[:m])
		buf = buf[m:]
		off += m
	}
}

// content returns the bytes that hold [off, off+n), a range within one
// page, for writing: the page's slab line when the range fits in one
// cache line of a page that is zero or holds that same line, else the
// page's frame once the page is dense.
func (d *Device) content(off, n uint64) []byte {
	if n == 0 {
		return nil
	}
	p := off / mem.PageSize
	if s := d.page[p]; s < pageFrame && off/mem.CacheLineSize == (off+n-1)/mem.CacheLineSize {
		line := uint32(off % mem.PageSize / mem.CacheLineSize)
		if s == pageZero {
			s = d.newLine(line)
			d.page[p] = s
		}
		if d.lines[s-1].line == line {
			o := off % mem.CacheLineSize
			return d.lines[s-1].data[o : o+n]
		}
	}
	o := off % mem.PageSize
	return d.frame(d.promote(p))[o : o+n]
}

// frame returns the bytes of frame k.
func (d *Device) frame(k uint32) []byte {
	o := uint64(k) * mem.PageSize
	return d.data[o : o+mem.PageSize : o+mem.PageSize]
}

// newFrame takes a zeroed frame: the free list's head, cleared, or else
// the first frame never handed out.
func (d *Device) newFrame() uint32 {
	if i := d.freeFrames; i != 0 {
		f := d.frame(i - 1)
		d.freeFrames = binary.LittleEndian.Uint32(f)
		clear(f)
		return i - 1
	}
	d.frames++
	return d.frames - 1
}

// freeFrame returns dense page p's frame to the free list; p reads zero.
func (d *Device) freeFrame(p uint64) {
	k := d.page[p] - pageFrame
	binary.LittleEndian.PutUint32(d.frame(k), d.freeFrames)
	d.freeFrames = k + 1
	d.page[p] = pageZero
}

// newLine takes a zeroed slab slot for a page's line and returns the
// page state that names it.
func (d *Device) newLine(line uint32) uint32 {
	if i := d.freeLines; i != 0 {
		d.freeLines = d.lines[i-1].line
		d.lines[i-1] = sparseLine{line: line}
		return i
	}
	//lint:ignore hotalloc amortized slab growth: the slab grows to the most sparse pages held at once, and a warm device stores without allocating (TestDeviceZeroAlloc)
	d.lines = append(d.lines, sparseLine{line: line})
	return uint32(len(d.lines))
}

// freeLine returns page p's slab line to the free list; p reads zero.
func (d *Device) freeLine(p uint64) {
	s := d.page[p]
	d.lines[s-1].line = d.freeLines
	d.freeLines = s
	d.page[p] = pageZero
}

// lineStart returns the device offset of sparse page p's line.
func (d *Device) lineStart(p uint64, s uint32) uint64 {
	return p*mem.PageSize + uint64(d.lines[s-1].line)*mem.CacheLineSize
}

// promote makes page p dense and returns its frame: a zero page takes a
// zeroed frame, and a sparse page moves its line into one and frees its
// slab slot.
func (d *Device) promote(p uint64) uint32 {
	s := d.page[p]
	if s >= pageFrame {
		return s - pageFrame
	}
	k := d.newFrame()
	if s != pageZero {
		copy(d.frame(k)[d.lines[s-1].line*mem.CacheLineSize:], d.lines[s-1].data[:])
		d.freeLine(p)
	}
	d.page[p] = pageFrame + k
	return k
}

// load copies [off, off+len(buf)) into buf: a dense page from its frame,
// any other page as zeroes with its slab line merged in.
func (d *Device) load(off uint64, buf []byte) {
	for end := off + uint64(len(buf)); off < end; {
		p := off / mem.PageSize
		next := min((p+1)*mem.PageSize, end)
		switch s := d.page[p]; {
		case s >= pageFrame:
			o := off % mem.PageSize
			copy(buf, d.frame(s - pageFrame)[o:o+next-off])
		default:
			clear(buf[:next-off])
			if s != pageZero {
				lo := d.lineStart(p, s)
				if a, b := max(off, lo), min(next, lo+mem.CacheLineSize); a < b {
					copy(buf[a-off:b-off], d.lines[s-1].data[a-lo:b-lo])
				}
			}
		}
		buf = buf[next-off:]
		off = next
	}
}

// zeroContent clears [off, off+n). A dense page frees its frame when the
// range covers it whole and clears the overlap in its frame otherwise; a
// sparse page frees its line when the range covers the line whole and
// clears the overlap otherwise; a zero page is skipped without touching
// host memory.
func (d *Device) zeroContent(off, n uint64) {
	for end := off + n; off < end; {
		p := off / mem.PageSize
		next := min((p+1)*mem.PageSize, end)
		switch s := d.page[p]; {
		case s == pageZero:
		case s >= pageFrame:
			if next-off == mem.PageSize {
				d.freeFrame(p)
				break
			}
			o := off % mem.PageSize
			clear(d.frame(s - pageFrame)[o : o+next-off])
		default:
			lo := d.lineStart(p, s)
			a, b := max(off, lo), min(next, lo+mem.CacheLineSize)
			switch {
			case a == lo && b == lo+mem.CacheLineSize:
				d.freeLine(p)
			case a < b:
				clear(d.lines[s-1].data[a-lo : b-lo])
			}
		}
		off = next
	}
}

func (d *Device) check(addr mem.PhysAddr, n uint64) {
	if uint64(addr)+n > d.size {
		//lint:ignore hotalloc fatal path: args are boxed only when panicking
		panic(fmt.Sprintf("pmem: access [%#x,+%d) beyond device size %#x", addr, n, d.size))
	}
}

// remoteExtra returns the added cycles for t's core reaching node's
// DIMMs across the socket interconnect (0 when the access is local or
// the machine is flat). Sub-page transfers pay one interconnect hop.
func (d *Device) remoteExtra(t *sim.Thread, node mem.NodeID, ratePerPage, n uint64) uint64 {
	if !d.tp.Remote(d.tp.NodeOfCore(t.Core), node) {
		return 0
	}
	extra := ratePerPage * n / mem.PageSize
	if extra == 0 {
		extra = cost.RemotePMemWalkExtra
	}
	return extra
}

// Read copies device content into buf, charging sequential-read cost and
// consuming the owning node's read bandwidth. Used for kernel copies
// (read(2) internals). A range spanning a bank boundary is attributed to
// the starting node (extents are node-pure under placement, so this only
// approximates pathological straddling ranges).
func (d *Device) Read(t *sim.Thread, addr mem.PhysAddr, buf []byte) {
	n := uint64(len(buf))
	d.check(addr, n)
	d.load(uint64(addr), buf)
	node := d.NodeOf(addr)
	d.Stats.BytesRead += n
	d.banks[node].stats.BytesRead += n
	c := cost.CopyFromPMemPerPage * n / mem.PageSize
	if c == 0 {
		c = cost.PMemSeqLoadLat
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
		if extra := d.remoteExtra(t, node, cost.RemotePMemReadExtraPerPage, n); extra > 0 {
			// "remote_read"/"remote_write" labels double as the span
			// layer's remote_numa wait kind.
			t.ChargeAs(labelRemoteRead, extra)
		}
	}
	t.ChargeAs(labelPMemRead, c)
	d.consumeRead(t, node, n)
}

// WriteNT writes buf with non-temporal stores: the data bypasses the CPU
// cache and is durable after the next Fence.
func (d *Device) WriteNT(t *sim.Thread, addr mem.PhysAddr, buf []byte) {
	n := uint64(len(buf))
	d.check(addr, n)
	d.store(uint64(addr), buf)
	d.writeNTCommon(t, addr, n)
}

// StreamNT charges an n-byte non-temporal store stream without
// materializing content (journal log writes and other synthetic payloads
// whose bytes the experiments never read back).
func (d *Device) StreamNT(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	d.writeNTCommon(t, addr, n)
}

func (d *Device) writeNTCommon(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	node := d.NodeOf(addr)
	d.Stats.BytesWritten += n
	d.Stats.NTStores++
	d.banks[node].stats.BytesWritten += n
	d.banks[node].stats.NTStores++
	if d.trackPersistence {
		// NT stores go to the WC buffer; durable at next fence. Model
		// them as flushed-awaiting-fence.
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			delete(d.dirtyLines, l)
			d.flushedLines[l] = struct{}{}
		}
	}
	c := cost.NTStorePMemPerPage * n / mem.PageSize
	if c == 0 {
		c = cost.NTStoreLineCost * (n + mem.CacheLineSize - 1) / mem.CacheLineSize
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
		if extra := d.remoteExtra(t, node, cost.RemotePMemWriteExtraPerPage, n); extra > 0 {
			t.ChargeAs(labelRemoteWrite, extra)
		}
	}
	t.ChargeAs(labelNTStore, c)
	d.consumeWrite(t, node, n)
}

// WriteCached writes buf with regular stores: fast, but NOT durable until
// the lines are flushed (Flush) and fenced (Fence). Remote cached stores
// pay nothing extra here — the store buffer hides the interconnect; the
// cost lands at flush/fence time.
func (d *Device) WriteCached(t *sim.Thread, addr mem.PhysAddr, buf []byte) {
	n := uint64(len(buf))
	d.check(addr, n)
	d.store(uint64(addr), buf)
	node := d.NodeOf(addr)
	d.Stats.BytesWritten += n
	d.Stats.CachedStores++
	d.banks[node].stats.BytesWritten += n
	d.banks[node].stats.CachedStores++
	if d.trackPersistence {
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			d.dirtyLines[l] = struct{}{}
		}
	}
	d.chargeCached(t, node, n, 1)
}

// WriteCachedWords stores ws as consecutive 8-byte little-endian words
// from addr, which must be 8-byte aligned, with regular stores, each
// page's share of the run written at once. It books, counts and dirties
// exactly what one 8-byte WriteCached per word would: a page-table node
// stores a run of entries through it.
func WriteCachedWords[W ~uint64](d *Device, t *sim.Thread, addr mem.PhysAddr, ws []W) {
	k := uint64(len(ws))
	if k == 0 {
		return
	}
	n := 8 * k
	d.check(addr, n)
	// A run within one bank is what a run of single stores is; a page
	// (one table node) never straddles banks, which are page-aligned.
	node := d.NodeOf(addr)
	if d.NodeOf(addr+mem.PhysAddr(n-1)) != node {
		panic("pmem: word run straddles a bank boundary")
	}
	if addr%8 != 0 {
		panic("pmem: word run is not 8-byte aligned")
	}
	// An aligned word never straddles pages: the run goes in a page at a
	// time.
	for off, rest := uint64(addr), ws; len(rest) > 0; {
		m := min(uint64(len(rest)), (mem.PageSize-off%mem.PageSize)/8)
		b := d.content(off, 8*m)
		for i, w := range rest[:m] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(w))
		}
		off, rest = off+8*m, rest[m:]
	}
	d.Stats.BytesWritten += n
	d.Stats.CachedStores += k
	d.banks[node].stats.BytesWritten += n
	d.banks[node].stats.CachedStores += k
	if d.trackPersistence {
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			d.dirtyLines[l] = struct{}{}
		}
	}
	d.chargeCached(t, node, 8, k)
}

// chargeCached books k cached stores of n bytes each to node's DIMMs.
// Cached stores complete at cache speed; the PMem cost is paid at flush
// time.
func (d *Device) chargeCached(t *sim.Thread, node mem.NodeID, n, k uint64) {
	c := cost.CacheHitLatency * ((n + mem.CacheLineSize - 1) / mem.CacheLineSize) / 4
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	t.ChargeAsN(labelCachedStore, c, k)
}

// Zero zeroes [addr, addr+n) with non-temporal stores (security zeroing of
// freshly allocated blocks, and DaxVM's pre-zero daemon). The charge
// covers the whole range; host memory is touched only where a page holds
// content.
func (d *Device) Zero(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	d.zeroContent(uint64(addr), n)
	node := d.NodeOf(addr)
	d.Stats.BytesZeroed += n
	d.Stats.BytesWritten += n
	d.banks[node].stats.BytesZeroed += n
	d.banks[node].stats.BytesWritten += n
	if d.trackPersistence {
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			delete(d.dirtyLines, l)
			d.flushedLines[l] = struct{}{}
		}
	}
	c := cost.ZeroPMemPerPage * n / mem.PageSize
	if c == 0 {
		c = cost.NTStoreLineCost
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
		if extra := d.remoteExtra(t, node, cost.RemotePMemWriteExtraPerPage, n); extra > 0 {
			t.ChargeAs(labelRemoteWrite, extra)
		}
	}
	t.ChargeAs(labelZero, c)
	d.consumeWrite(t, node, n)
}

// Flush issues clwb for every cache line in [addr, addr+n): the write-back
// is durable after the next Fence. Charges store+clwb bandwidth.
func (d *Device) Flush(t *sim.Thread, addr mem.PhysAddr, n uint64) {
	d.check(addr, n)
	node := d.NodeOf(addr)
	lines := (n + mem.CacheLineSize - 1) / mem.CacheLineSize
	d.Stats.Clwbs += lines
	d.banks[node].stats.Clwbs += lines
	if d.trackPersistence {
		first, last := lineSpan(addr, n)
		for l := first; l <= last; l++ {
			if _, ok := d.dirtyLines[l]; ok {
				delete(d.dirtyLines, l)
				d.flushedLines[l] = struct{}{}
			}
		}
	}
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	t.ChargeAs(labelClwb, cost.ClwbCost*lines)
	d.consumeWrite(t, node, lines*mem.CacheLineSize)
}

// Fence drains pending flushes/NT stores (sfence); after it returns,
// everything previously flushed is durable. The drain is core-local, so
// it carries no node attribution.
func (d *Device) Fence(t *sim.Thread) {
	d.Stats.Fences++
	if d.trackPersistence {
		for l := range d.flushedLines {
			delete(d.flushedLines, l)
			delete(d.dirtyLines, l)
		}
	}
	t.ChargeAs(labelFence, cost.FenceCost)
}

// lineSpan returns the first and last cache-line indices covering
// [addr, addr+n).
func lineSpan(addr mem.PhysAddr, n uint64) (first, last uint64) {
	return uint64(addr) / mem.CacheLineSize, (uint64(addr) + n - 1) / mem.CacheLineSize
}

// Crash simulates a power failure: every line written with cached stores
// and not flushed+fenced is replaced with garbage (0xCC) so recovery code
// that depends on unflushed data fails loudly. Requires TrackPersistence.
func (d *Device) Crash() {
	if !d.trackPersistence {
		panic("pmem: Crash requires TrackPersistence")
	}
	for l := range d.dirtyLines {
		d.corruptLine(l)
	}
	// Lines flushed-but-not-fenced may or may not survive; the paper's
	// recovery protocols must not depend on them, so corrupt them too
	// (the adversarial choice).
	for l := range d.flushedLines {
		d.corruptLine(l)
	}
	d.dirtyLines = make(map[uint64]struct{})
	d.flushedLines = make(map[uint64]struct{})
}

// corruptLine fills cache line l with 0xCC through the store path: the
// line may sit on a page that holds nothing (StreamNT writes no bytes,
// and a whole-page Zero empties its page before the fence).
func (d *Device) corruptLine(l uint64) {
	b := d.content(l*mem.CacheLineSize, mem.CacheLineSize)
	for i := range b {
		b[i] = 0xCC
	}
}

// DirtyLineCount reports unflushed cached-store lines (crash tests).
func (d *Device) DirtyLineCount() int { return len(d.dirtyLines) }

// BWRead accounts shared-channel occupancy for DAX loads that bypass the
// kernel (mapped access): the data still crosses the DIMM channel even
// though no kernel copy happens. Single-node convenience for BWReadOn.
func (d *Device) BWRead(t *sim.Thread, n uint64) { d.BWReadOn(t, 0, n) }

// BWWrite is the store-side analogue of BWRead.
func (d *Device) BWWrite(t *sim.Thread, n uint64) { d.BWWriteOn(t, 0, n) }

// BWReadOn accounts mapped-read channel occupancy against one node's bank.
func (d *Device) BWReadOn(t *sim.Thread, node mem.NodeID, n uint64) {
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	d.consumeRead(t, node, n)
}

// BWWriteOn accounts mapped-write channel occupancy against one node's bank.
func (d *Device) BWWriteOn(t *sim.Thread, node mem.NodeID, n uint64) {
	if d.multi() {
		t.PushAttr(d.attrs[node])
		defer t.PopAttr()
	}
	d.consumeWrite(t, node, n)
}

// ResetTiming clears bandwidth-channel occupancy and statistics on every
// bank. Called between an experiment's setup phase (image aging, corpus
// creation) and its measurement phase so setup traffic does not bleed
// into results.
func (d *Device) ResetTiming() {
	for i := range d.banks {
		d.banks[i] = bank{}
	}
	d.Stats = Stats{}
}

func (d *Device) consumeRead(t *sim.Thread, node mem.NodeID, n uint64) {
	busy, stall := consume(t, &d.banks[node].bw.readBusyUntil, n, cost.PMemDeviceReadBytesPerCycle)
	d.Stats.BusyCycles += busy
	d.banks[node].stats.BusyCycles += busy
	if stall > 0 {
		d.Stats.ThrottleStall += stall
		d.banks[node].stats.ThrottleStall += stall
	}
}

func (d *Device) consumeWrite(t *sim.Thread, node mem.NodeID, n uint64) {
	busy, stall := consume(t, &d.banks[node].bw.writeBusyUntil, n, cost.PMemDeviceWriteBytesPerCycle)
	d.Stats.BusyCycles += busy
	d.banks[node].stats.BusyCycles += busy
	if stall > 0 {
		d.Stats.ThrottleStall += stall
		d.banks[node].stats.ThrottleStall += stall
	}
}

// BacklogOn reports, at virtual time now, how many cycles of already-booked
// transfer work remain queued on one node's read and write channels
// combined — the token bucket's saturation signal. Zero when both channels
// have drained. Pure read for gauge sampling: charges nothing and never
// touches bucket state.
func (d *Device) BacklogOn(node int, now uint64) uint64 {
	var backlog uint64
	if bu := d.banks[node].bw.readBusyUntil; bu > now {
		backlog += bu - now
	}
	if bu := d.banks[node].bw.writeBusyUntil; bu > now {
		backlog += bu - now
	}
	return backlog
}

// --- bandwidth token bucket -------------------------------------------------

// tokenBucket serializes one bank's bandwidth in virtual time. The
// issuing thread's own charge already covers its per-thread transfer
// time; the bucket additionally models the shared per-node channel: a
// transfer of n bytes occupies the channel for n/deviceRate cycles
// ending no earlier than previous transfers end. If the channel cannot
// complete the transfer by the thread's current clock, the thread stalls
// for the difference — which is exactly how background zeroing steals
// bandwidth from foreground appends on real Optane.
type tokenBucket struct {
	writeBusyUntil uint64
	readBusyUntil  uint64
}

// consume books an n-byte transfer on the channel, charges any stall to
// t, and returns the transfer's channel-occupancy cycles plus the stall
// cycles for the caller's statistics. The "bw_stall" label is
// load-bearing beyond profiling: the span layer (internal/obs/span)
// classifies it as the pmem_bw wait kind.
func consume(t *sim.Thread, busyUntil *uint64, n uint64, rate float64) (busy, stall uint64) {
	// Synchronization point: the shared channel state must be touched in
	// virtual-time order or threads that never block would serialize
	// each other spuriously.
	t.Yield()
	dur := uint64(float64(n) / rate)
	now := t.Now()
	start := now - dur
	if now < dur {
		start = 0
	}
	if *busyUntil > start {
		start = *busyUntil
	}
	finish := start + dur
	*busyUntil = finish
	if finish > now {
		stall = finish - now
		t.ChargeAs(labelBWStall, stall)
	}
	return dur, stall
}
