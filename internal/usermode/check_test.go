package usermode

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
)

// referenceGrantsOffFree is the pairwise form of checkDisjoint's
// free-space rule: every grant and shared segment is tested against
// every free block of every pool, O(spans × free blocks). It is the
// test oracle for checkDisjoint's sorted merge.
func referenceGrantsOffFree(gt *GrantTable) error {
	var spans []buddy.Run
	for _, p := range gt.procs {
		for _, g := range p.grants {
			spans = append(spans, g.run)
		}
	}
	for _, s := range gt.shared {
		spans = append(spans, s.run)
	}
	var err error
	visit := func(start mem.Frame, count uint64) {
		for _, s := range spans {
			if err == nil && s.Start < start+mem.Frame(count) && start < s.End() {
				err = fmt.Errorf("[%d,+%d) overlaps free [%d,+%d)", s.Start, s.Count, start, count)
			}
		}
	}
	gt.pool.VisitFree(visit)
	if gt.fast != nil {
		gt.fast.VisitFree(visit)
	}
	return err
}

// TestGrantOverlapsFreeMatchesReference releases granted frames back to
// a pool behind the grant table's back — a whole grant, one frame
// inside a grant, a shared segment, and a grant in the fast pool — and
// requires checkDisjoint to reject each, as the pairwise reference
// does. The pools stay internally consistent, so only the free-space
// rule can catch it.
func TestGrantOverlapsFreeMatchesReference(t *testing.T) {
	type world struct {
		gt     *GrantTable
		p      *Process
		shared *SharedSeg
	}
	setup := func(t *testing.T) world {
		machine, _, gt := newTable(t, 1024, 512, 64)
		var w world
		w.gt = gt
		var err error
		if w.p, err = gt.NewProcessOn(machine.BootCPU()); err != nil {
			t.Fatal(err)
		}
		// Enough grants to spill from the 512-frame fast pool into
		// the primary one.
		for i := 0; i < 16; i++ {
			if _, err := w.p.AllocPages(40); err != nil {
				t.Fatal(err)
			}
		}
		if w.shared, err = gt.NewShared(w.p, 16); err != nil {
			t.Fatal(err)
		}
		if err := gt.checkDisjoint(); err != nil {
			t.Fatalf("clean table rejected: %v", err)
		}
		if err := referenceGrantsOffFree(gt); err != nil {
			t.Fatalf("reference rejects clean table: %v", err)
		}
		return w
	}
	grantIn := func(t *testing.T, w world, pool *buddy.Allocator) *grant {
		t.Helper()
		for _, g := range w.p.grants {
			if g.from == pool {
				return g
			}
		}
		t.Fatal("no grant from that pool")
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, w world) error
	}{
		{"whole grant freed", func(t *testing.T, w world) error {
			g := grantIn(t, w, w.gt.pool)
			return g.from.FreeRun(g.run)
		}},
		{"one frame inside a grant freed", func(t *testing.T, w world) error {
			g := grantIn(t, w, w.gt.pool)
			return g.from.FreeRange(g.run.Start+mem.Frame(g.run.Count/2), 1)
		}},
		{"last frame of a fast-pool grant freed", func(t *testing.T, w world) error {
			g := grantIn(t, w, w.gt.fast)
			return g.from.FreeRange(g.run.End()-1, 1)
		}},
		{"shared segment freed", func(t *testing.T, w world) error {
			return w.shared.from.FreeRun(w.shared.run)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := setup(t)
			if err := c.corrupt(t, w); err != nil {
				t.Fatal(err)
			}
			got, ref := w.gt.checkDisjoint(), referenceGrantsOffFree(w.gt)
			if got == nil || ref == nil {
				t.Fatalf("checkDisjoint = %v, reference = %v; both must reject", got, ref)
			}
		})
	}
}

// TestPoolExhaustionIsErrNoMemory: an exhausted grant pool reaches
// callers as buddy.ErrNoMemory, for grants and shared segments alike.
func TestPoolExhaustionIsErrNoMemory(t *testing.T) {
	machine, _, gt := newTable(t, 128, 0, 64)
	p, err := gt.NewProcessOn(machine.BootCPU())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AllocPages(200); !errors.Is(err, buddy.ErrNoMemory) {
		t.Fatalf("grant refill: error %v is not buddy.ErrNoMemory", err)
	}
	if _, err := gt.NewShared(p, 200); !errors.Is(err, buddy.ErrNoMemory) {
		t.Fatalf("shared segment: error %v is not buddy.ErrNoMemory", err)
	}
}
