package memfs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tier"
)

// referenceCheck is the per-frame form of the extent audit, block-region
// rule included: it records the owner of every frame of every extent in
// a frame-indexed map, so it costs O(file pages). It is the test oracle
// for the extent-grain CheckInvariants.
func referenceCheck(fs *FS) error {
	inRegion := func(b *buddy.Allocator, f mem.Frame) bool {
		return b != nil && f >= b.Base() && uint64(f-b.Base()) < b.Size()
	}
	owner := make(map[mem.Frame]uint64)
	for _, ino := range fs.inodes {
		var prevEnd uint64
		for idx, e := range ino.extents {
			if idx > 0 && e.Logical < prevEnd {
				return fmt.Errorf("inode %d extents overlap logically", ino.ino)
			}
			prevEnd = e.End()
			for f := e.Start; f < e.Start+mem.Frame(e.Count); f++ {
				if !inRegion(fs.bud, f) && !inRegion(fs.fastBud, f) {
					return fmt.Errorf("frame %d of inode %d outside the block region", f, ino.ino)
				}
				if other, dup := owner[f]; dup {
					return fmt.Errorf("frame %d owned by inodes %d and %d", f, other, ino.ino)
				}
				owner[f] = ino.ino
			}
		}
	}
	return fs.bud.CheckInvariants()
}

// agree fails the test unless CheckInvariants and referenceCheck return
// the same verdict and, when wantErr is set, that verdict rejects.
func agree(t *testing.T, fs *FS, what string, wantErr bool) {
	t.Helper()
	got, ref := fs.CheckInvariants(), referenceCheck(fs)
	if (got == nil) != (ref == nil) {
		t.Fatalf("%s: CheckInvariants = %v, reference = %v", what, got, ref)
	}
	if wantErr && got == nil {
		t.Fatalf("%s: corruption not rejected", what)
	}
}

// TestCheckInvariantsMatchesReference plants one corruption per case
// into a file system holding three fragmented files and requires the
// extent-grain audit to reject it, as the per-frame reference does.
func TestCheckInvariantsMatchesReference(t *testing.T) {
	setup := func(t *testing.T) (*FS, [3]*Inode) {
		fs, _, _ := newFS(t, PerPage)
		var inos [3]*Inode
		for i := range inos {
			f, err := fs.Create(fmt.Sprintf("/f%d", i), CreateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(8 * mem.FrameSize); err != nil {
				t.Fatal(err)
			}
			inos[i] = f.Inode()
		}
		// Interleave single-page faults so no two pages merge.
		for page := uint64(0); page < 8; page++ {
			for _, ino := range inos {
				if _, _, err := (&File{inode: ino}).PageFrame(page, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := fs.CheckInvariants(); err != nil {
			t.Fatalf("clean file system rejected: %v", err)
		}
		agree(t, fs, "clean", false)
		return fs, inos
	}
	cases := []struct {
		name    string
		corrupt func(fs *FS, inos [3]*Inode)
	}{
		{"two inodes share a frame", func(fs *FS, inos [3]*Inode) {
			inos[1].extents[3].Start = inos[0].extents[5].Start
		}},
		{"zero-length extent between two overlapping extents", func(fs *FS, inos [3]*Inode) {
			// Three extents over free frames past every file: X covers
			// f..f+2, the empty Z sits at f+1, and Y covers f+2. Sorted,
			// Z falls between X and Y and ends before Y starts, so only
			// X's end can show that Y overlaps it.
			var f mem.Frame
			for _, ino := range inos {
				for _, e := range ino.extents {
					f = max(f, e.Start+mem.Frame(e.Count))
				}
			}
			inos[0].extents = append(inos[0].extents, ExtentRun{Logical: 8, Start: f, Count: 3})
			inos[2].extents = append(inos[2].extents, ExtentRun{Logical: 8, Start: f + 1, Count: 0})
			inos[1].extents = append(inos[1].extents, ExtentRun{Logical: 8, Start: f + 2, Count: 1})
		}},
		{"extent below the block region", func(fs *FS, inos [3]*Inode) {
			inos[2].extents[7].Start = fs.bud.Base() - 1
		}},
		{"extent straddling the end of the block region", func(fs *FS, inos [3]*Inode) {
			inos[2].extents = append(inos[2].extents, ExtentRun{Logical: 8, Start: fs.bud.Base() + mem.Frame(fs.bud.Size()) - 1, Count: 2})
		}},
		{"extents out of logical order", func(fs *FS, inos [3]*Inode) {
			e := inos[0].extents
			e[0], e[1] = e[1], e[0]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs, inos := setup(t)
			c.corrupt(fs, inos)
			agree(t, fs, c.name, true)
		})
	}
}

// TestCheckInvariantsAcceptsFastRegion: with tiering attached, an
// extent in the fast region is inside the block region, and one in
// neither region is not.
func TestCheckInvariantsAcceptsFastRegion(t *testing.T) {
	fs, _, _, _ := newTieredFS(t, tier.Promote, 64, 128)
	f, err := fs.CreateTemp("hot", CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnsureContiguous(4); err != nil {
		t.Fatal(err)
	}
	if start := f.Inode().extents[0].Start; fs.budFor(start) != fs.fastBud {
		t.Fatalf("first extent at frame %d not in the fast region", start)
	}
	agree(t, fs, "fast extent", false)
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.Inode().extents[0].Start = fs.fastBud.Base() + mem.Frame(fs.fastBud.Size())
	if fs.bud.Base() == f.Inode().extents[0].Start {
		t.Fatal("fast region abuts the slow one; pick a frame in neither")
	}
	agree(t, fs, "extent in neither region", true)
}

// TestOutOfSpaceIsErrNoMemory: block exhaustion reaches callers as
// buddy.ErrNoMemory through both allocation policies.
func TestOutOfSpaceIsErrNoMemory(t *testing.T) {
	for _, policy := range []AllocPolicy{Extent, PerPage} {
		fs, _, _ := newFS(t, policy)
		for {
			if _, err := fs.bud.AllocFrame(); err != nil {
				break
			}
		}
		f, _ := fs.Create("/f", CreateOptions{})
		var err error
		if policy == Extent {
			err = f.Truncate(mem.FrameSize)
		} else {
			if err = f.Truncate(mem.FrameSize); err != nil {
				t.Fatal(err)
			}
			_, _, err = f.PageFrame(0, true)
		}
		if !errors.Is(err, buddy.ErrNoMemory) {
			t.Fatalf("%v: out-of-space error %v is not buddy.ErrNoMemory", policy, err)
		}
		g, _ := fs.Create("/g", CreateOptions{})
		if err := g.EnsureContiguous(1); !errors.Is(err, buddy.ErrNoMemory) {
			t.Fatalf("%v: EnsureContiguous error %v is not buddy.ErrNoMemory", policy, err)
		}
	}
}

// BenchmarkCheckInvariants audits a 2^17-frame file system holding 64
// files whose pages were faulted in round robin, so none merge: 4,096
// single-page extents.
func BenchmarkCheckInvariants(b *testing.B) {
	clock := &sim.Clock{}
	params := sim.DefaultParams()
	m, err := mem.New(clock, &params, mem.Config{DRAMFrames: 1024, NVMFrames: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	nvm, _ := m.Region(mem.NVM)
	fs, err := New("bench", PerPage, clock, &params, m, nvm.Start, nvm.Count)
	if err != nil {
		b.Fatal(err)
	}
	files := make([]*File, 64)
	for i := range files {
		if files[i], err = fs.Create(fmt.Sprintf("/f%d", i), CreateOptions{}); err != nil {
			b.Fatal(err)
		}
		if err := files[i].Truncate(64 * mem.FrameSize); err != nil {
			b.Fatal(err)
		}
	}
	for page := uint64(0); page < 64; page++ {
		for _, f := range files {
			if _, _, err := f.PageFrame(page, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
