package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// This file reads runtime/pprof CPU profiles and charges every sample to
// one simulator layer. The profile format is gzipped protocol buffers
// (github.com/google/pprof/proto/profile.proto); only the fields needed
// here are decoded, so the benchmark stays standard-library only.

const internalPrefix = "daxvm/internal/"

// layerOfPackage maps a package path below daxvm/internal/ to its layer.
// Packages it does not list (cost, mem, topo, bench) are small helpers:
// their frames charge to their caller, as runtime and standard-library
// frames do.
func layerOfPackage(pkg string) (string, bool) {
	switch pkg {
	case "sim":
		return "sim", true
	case "cpu", "tlb", "pt":
		return "cpu", true
	case "mm", "rbtree", "radix", "latr":
		return "mm", true
	case "core":
		return "core", true
	case "pmem", "dram":
		return "pmem", true
	case "kernel":
		return "kernel", true
	case "obs":
		return "obs", true
	case "obs/span":
		return "span", true
	case "obs/timeline", "obs/bottleneck":
		return "timeline", true
	case "workload":
		return "workload", true
	}
	switch {
	case strings.HasPrefix(pkg, "fs/"):
		return "fs", true
	case strings.HasPrefix(pkg, "workload/"):
		return "workload", true
	}
	return "", false
}

// funcPackage returns the import path of a profiled function name such as
// "daxvm/internal/fs/ext4.(*FS).Append.func1". Receiver types and type
// arguments may hold dots and slashes of their own, so the path ends at the
// first dot after the last slash before any '(' or '['.
func funcPackage(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		return head[:slash+1+dot]
	}
	return head
}

// layerOf charges a stack (leaf first) to the innermost frame of a mapped
// layer. Runtime work thus lands on the layer that asked for it: map
// hashing under CycleAccount.Charge counts as obs, channel parking under
// Engine.dispatchFrom as sim. A stack with no such frame (GC workers, the
// benchmark's own bookkeeping) is runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg, ok := strings.CutPrefix(funcPackage(fn), internalPrefix)
		if !ok {
			continue
		}
		if l, ok := layerOfPackage(pkg); ok {
			return l
		}
	}
	return "runtime"
}

// profSample is one decoded CPU-profile sample.
type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	count int64
	nanos int64
	phase string // the pprof "phase" label; "" outside any labeled phase
}

// attribution accumulates profiled host time per layer and phase.
type attribution struct {
	samples int64
	total   int64                       // nanoseconds
	nanos   map[string]map[string]int64 // layer -> phase -> nanoseconds
}

func (a *attribution) add(samples []profSample) {
	if a.nanos == nil {
		a.nanos = map[string]map[string]int64{}
	}
	for _, s := range samples {
		l := layerOf(s.stack)
		if a.nanos[l] == nil {
			a.nanos[l] = map[string]int64{}
		}
		a.nanos[l][s.phase] += s.nanos
		a.samples += s.count
		a.total += s.nanos
	}
}

// layerNanos sums a layer's nanoseconds over every phase.
func (a *attribution) layerNanos(layer string) int64 {
	var s int64
	for _, v := range a.nanos[layer] {
		s += v
	}
	return s
}

// phaseNanos sums a phase's nanoseconds over every layer.
func (a *attribution) phaseNanos(phase string) int64 {
	var s int64
	for _, byPhase := range a.nanos {
		s += byPhase[phase]
	}
	return s
}

func readProfile(path string) ([]profSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Field numbers of profile.proto.
const (
	fieldProfileSampleType = 1
	fieldProfileSample     = 2
	fieldProfileLocation   = 4
	fieldProfileFunction   = 5
	fieldProfileStrings    = 6

	fieldSampleLocations = 1
	fieldSampleValues    = 2
	fieldSampleLabel     = 3
	fieldLabelKey        = 1
	fieldLabelStr        = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2

	fieldValueTypeType = 1
)

func parseProfile(raw []byte) ([]profSample, error) {
	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels [][2]uint64 // key, value string indexes
	}
	var (
		types   []uint64
		samples []rawSample
		locs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function -> name string index
		strs    []string
	)
	err := pbFields(raw, func(field, _ int, _ uint64, msg []byte) error {
		switch field {
		case fieldProfileSampleType:
			return pbFields(msg, func(f, _ int, v uint64, _ []byte) error {
				if f == fieldValueTypeType {
					types = append(types, v)
				}
				return nil
			})
		case fieldProfileSample:
			var s rawSample
			err := pbFields(msg, func(f, wire int, v uint64, b []byte) error {
				var err error
				switch f {
				case fieldSampleLocations:
					s.locs, err = appendPacked(s.locs, wire, v, b)
				case fieldSampleValues:
					s.vals, err = appendPacked(s.vals, wire, v, b)
				case fieldSampleLabel:
					var kv [2]uint64
					err = pbFields(b, func(lf, _ int, lv uint64, _ []byte) error {
						switch lf {
						case fieldLabelKey:
							kv[0] = lv
						case fieldLabelStr:
							kv[1] = lv
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := pbFields(msg, func(f, _ int, v uint64, line []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return pbFields(line, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == fieldLineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case fieldProfileFunction:
			var id, name uint64
			err := pbFields(msg, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case fieldProfileStrings:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// runtime/pprof writes two values per sample: a count and CPU time.
	cpuIdx := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 1 {
		return nil, errors.New("not a CPU profile")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) <= cpuIdx {
			return nil, errors.New("sample without a CPU value")
		}
		ps := profSample{count: int64(s.vals[0]), nanos: int64(s.vals[cpuIdx])}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				ps.stack = append(ps.stack, str(funcs[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "phase" {
				ps.phase = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// pbFields calls fn for each field of one protocol-buffer message: v holds
// a varint's value, b a length-delimited field's bytes. Fixed-width fields
// are skipped; profile.proto has none this file reads.
func pbFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(buf) < width {
				return errors.New("profile: truncated fixed-width field")
			}
			buf = buf[width:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
