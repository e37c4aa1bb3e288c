package agefs

import (
	"testing"

	"daxvm/internal/fs/ext4"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

func TestAgeFragmentsImage(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	t.Cleanup(dev.Release)
	f := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})

	var rep Report
	e := sim.New()
	e.Go("ager", 0, 0, func(th *sim.Thread) {
		var err error
		rep, err = Age(th, f, DefaultConfig())
		if err != nil {
			t.Errorf("Age: %v", err)
		}
	})
	e.Run()

	if rep.Utilization < 0.6 || rep.Utilization > 0.8 {
		t.Fatalf("utilization = %.2f, want ~0.70", rep.Utilization)
	}
	if rep.FreeExtents < 50 {
		t.Fatalf("free extents = %d; image not fragmented", rep.FreeExtents)
	}
	if rep.FilesLive == 0 {
		t.Fatal("no live files after aging")
	}

	// A large allocation on the aged image must span many extents —
	// the property that kills huge-page coverage in the paper.
	e2 := sim.New()
	e2.Go("check", 0, 0, func(th *sim.Thread) {
		in, err := f.Create(th, "bench/big")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := f.Fallocate(th, in, 0, 32<<20); err != nil {
			t.Errorf("Fallocate: %v", err)
			return
		}
		if exts := f.Extents(in); len(exts) < 8 {
			t.Errorf("aged image produced only %d extents for 32 MiB", len(exts))
		}
	})
	e2.Run()
}

func TestAgeDeterministic(t *testing.T) {
	mk := func() Report {
		dev := pmem.New(pmem.Config{Size: 256 << 20})
		defer dev.Release()
		f := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})
		var rep Report
		e := sim.New()
		e.Go("ager", 0, 0, func(th *sim.Thread) { rep, _ = Age(th, f, DefaultConfig()) })
		e.Run()
		return rep
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("aging not deterministic: %+v vs %+v", a, b)
	}
}

func TestSampleSizeDistribution(t *testing.T) {
	// The Agrawal profile is dominated by small files: the median sample
	// must be <= 32 KiB and the tail must produce some >1 MiB files.
	rng := newRng()
	small, big := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		s := sampleSize(rng)
		if s <= 32<<10 {
			small++
		}
		if s >= 1<<20 {
			big++
		}
	}
	if small < n/2 {
		t.Fatalf("only %d/%d samples <= 32 KiB", small, n)
	}
	if big == 0 {
		t.Fatal("no large-file tail")
	}
}
