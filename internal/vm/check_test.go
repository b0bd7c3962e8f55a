package vm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/sim"
)

// referenceFreeUntracked is the per-frame form of the no-free-but-
// tracked rule: it looks up every frame of every free block of every
// pool, so it costs O(free frames). It is the test oracle for the
// sorted merge in checkFreeUntracked.
func referenceFreeUntracked(k *Kernel) error {
	pools := []*buddy.Allocator{k.pool}
	for _, ar := range k.arenas {
		pools = append(pools, ar.pool)
	}
	if k.slowPool != nil {
		pools = append(pools, k.slowPool)
	}
	var err error
	for _, pool := range pools {
		pool.VisitFree(func(start mem.Frame, count uint64) {
			for i := uint64(0); i < count && err == nil; i++ {
				if _, tracked := k.page(start + mem.Frame(i)); tracked {
					err = fmt.Errorf("frame %d is free but tracked", start+mem.Frame(i))
				}
			}
		})
	}
	return err
}

// freeFrame returns the frame at offset off into the largest free block
// of pool (off = -1 picks the block's last frame).
func freeFrame(t *testing.T, pool *buddy.Allocator, off int) mem.Frame {
	t.Helper()
	var start mem.Frame
	var count uint64
	pool.VisitFree(func(s mem.Frame, n uint64) {
		if n > count {
			start, count = s, n
		}
	})
	if count < 4 {
		t.Fatalf("pool has no free block of 4+ frames (largest %d)", count)
	}
	if off < 0 {
		return start + mem.Frame(count-1)
	}
	return start + mem.Frame(off)
}

// TestFreeUntrackedMatchesReference plants a PageInfo for a frame that
// is still on a free list — the global pool, a CPU arena, and the slow
// pool, at the start, inside, and at the end of a free block — and
// requires CheckInvariants to reject it, as the per-frame reference
// does. The planted record has no mappings and is on no LRU list, so
// the free-list rule is the only one it breaks.
func TestFreeUntrackedMatchesReference(t *testing.T) {
	setup := func(t *testing.T) *Kernel {
		clock := &sim.Clock{}
		params := sim.DefaultParams()
		memory, err := mem.New(clock, &params, mem.Config{DRAMFrames: 4096, NVMFrames: 1024})
		if err != nil {
			t.Fatal(err)
		}
		nvm, _ := memory.Region(mem.NVM)
		k, err := NewKernel(clock, &params, memory, Config{PoolBase: 0, PoolFrames: 4096, LowWater: 512,
			SlowPoolBase: nvm.Start, SlowPoolFrames: nvm.Count})
		if err != nil {
			t.Fatal(err)
		}
		as, err := k.NewAddressSpace()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := as.Mmap(MmapRequest{Pages: 37, Prot: rw, Anon: true, Populate: true}); err != nil {
			t.Fatal(err)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("clean kernel rejected: %v", err)
		}
		if err := referenceFreeUntracked(k); err != nil {
			t.Fatalf("reference rejects clean kernel: %v", err)
		}
		return k
	}
	plant := func(d *metaDomain, f mem.Frame) {
		d.pages[f] = &PageInfo{Frame: f}
	}
	for _, pos := range []struct {
		name string
		off  int
	}{{"block start", 0}, {"inside a block", 3}, {"block end", -1}} {
		t.Run("global pool/"+pos.name, func(t *testing.T) {
			k := setup(t)
			plant(&k.meta, freeFrame(t, k.pool, pos.off))
			agreeFreeUntracked(t, k)
		})
		t.Run("slow pool/"+pos.name, func(t *testing.T) {
			k := setup(t)
			plant(&k.meta, freeFrame(t, k.slowPool, pos.off))
			agreeFreeUntracked(t, k)
		})
	}
	t.Run("cpu arena", func(t *testing.T) {
		_, k := newSMPMachine(t, 2, 0)
		if err := k.CarveArenas(64); err != nil {
			t.Fatal(err)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("clean kernel rejected: %v", err)
		}
		ar := k.arenas[1]
		plant(&ar.meta, freeFrame(t, ar.pool, 5))
		agreeFreeUntracked(t, k)
	})
}

func agreeFreeUntracked(t *testing.T, k *Kernel) {
	t.Helper()
	got, ref := k.CheckInvariants(), referenceFreeUntracked(k)
	if got == nil || ref == nil {
		t.Fatalf("tracked free frame: CheckInvariants = %v, reference = %v; both must reject", got, ref)
	}
}

// TestOutOfMemoryIsErrNoMemory: global-pool exhaustion reaches the
// fault path's caller as buddy.ErrNoMemory once reclaim finds nothing
// evictable (TestArenaExhaustionIsHardError covers the arena path).
func TestOutOfMemoryIsErrNoMemory(t *testing.T) {
	m := newMachine(t, 64)
	as, err := m.kernel.NewAddressSpace()
	if err != nil {
		t.Fatal(err)
	}
	_, err = as.Mmap(MmapRequest{Pages: 128, Prot: rw, Anon: true, Locked: true})
	if !errors.Is(err, buddy.ErrNoMemory) {
		t.Fatalf("error %v is not buddy.ErrNoMemory", err)
	}
}
