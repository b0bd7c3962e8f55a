package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

func loadRefs(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	return resultSections(string(data))
}

// A reference with one byte changed must fail its experiment's unit,
// and the failure must reach the run's failed count.
func TestPlantedReferenceFaultIsCounted(t *testing.T) {
	refs := loadRefs(t)
	order, err := experiments([]string{"walkdepth", "fig6a"})
	if err != nil {
		t.Fatal(err)
	}
	clean := newTally()
	newSuiteRun(1, false, 1, order, refs).pass(nil, clean)
	if clean.units != 2 || len(clean.failures) != 0 {
		t.Fatalf("clean pass: %d units, failures %v", clean.units, clean.failures)
	}

	planted := map[string]string{}
	for k, v := range refs {
		planted[k] = v
	}
	b := []byte(planted["fig6a"])
	b[len(b)/2] ^= 1
	planted["fig6a"] = string(b)

	w := workload{name: "planted", setupReps: 1, setup: func(uint64, *tally) (instance, error) {
		return newSuiteRun(1, false, 1, order, planted), nil
	}}
	res, err := measure(w, 1, 1e-3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Three passes of two experiments, plus the guards of the second
	// and third passes.
	if res.attempted != 8 || res.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 8 and 3 (failures %v)", res.attempted, res.failed, res.failures)
	}
	for _, f := range res.failures {
		if !strings.HasPrefix(f, "fig6a:") {
			t.Errorf("unexpected failure %q", f)
		}
	}
}

// Corrupted baseline rmap state (check.Options.Corrupt) must fail the
// baseline replay unit of a checker pass.
func TestPlantedCheckerFaultIsCounted(t *testing.T) {
	inst, err := setupCheck(1, 200, 1, false, newTally())
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*checkRun)
	clean := newTally()
	c.pass(nil, clean)
	if clean.units != 15 || len(clean.failures) != 0 {
		t.Fatalf("clean pass: %d units, failures %v", clean.units, clean.failures)
	}

	c.traces[0].opts.Corrupt = true
	planted := newTally()
	c.pass(nil, planted)
	if len(planted.failures) == 0 {
		t.Fatal("corrupted rmap was not counted as a failure")
	}
	if !strings.HasPrefix(planted.failures[0], "replay baseline:") {
		t.Errorf("first failure %q, want the baseline replay", planted.failures[0])
	}
}

func TestDeterminismGuardCountsMismatch(t *testing.T) {
	first := newTally()
	first.counts["tier.pages_moved"] = 10
	same, diff := newTally(), newTally()
	same.counts["tier.pages_moved"] = 10
	diff.counts["tier.pages_moved"] = 11
	same.guard(first)
	diff.guard(first)
	if len(same.failures) != 0 || same.units != 1 {
		t.Errorf("equal counts: %d units, failures %v", same.units, same.failures)
	}
	if len(diff.failures) != 1 {
		t.Errorf("differing counts: failures %v, want one", diff.failures)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 1, Start: 12, End: 15},
		{ID: 3, Parent: 0, Start: 20, End: 50}, // overlaps span 1
	}
	selfTimes(spans, 0)
	for i, want := range []int64{60, 17, 3, 30} {
		if spans[i].Self != want {
			t.Errorf("span %d self %d, want %d", i, spans[i].Self, want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("test")
	root := tr.begin("pass")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	tr.end(b)
	tr.end(root)
	spans := tr.finish()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != root || spans[0].Parent != -1 {
		t.Fatalf("spans %+v", spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("off")) // tracing off records nothing
}

// The profile parser must find samples and attribute some of them to
// the layers an experiment runs in.
func TestProfileAttribution(t *testing.T) {
	e, ok := bench.ByID("walkdepth")
	if !ok {
		t.Fatal("no walkdepth experiment")
	}
	p := startProfile()
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	s := p.stop()
	if s.samples == 0 {
		t.Fatal("no samples")
	}
	shares := s.shares()
	total, repo := 0.0, 0.0
	for k, v := range shares {
		if k == "prof.samples" {
			continue
		}
		total += v
		if k != "prof.runtime.share" {
			repo += v
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if repo == 0 {
		t.Errorf("no samples attributed to a repository layer: %v", shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/buddy.(*Allocator).Alloc": "buddy",
		"repro/internal/mem.(*Memory).Write":      "mem",
		"repro/internal/memfs.(*FS).Create":       "memfs",
		"repro/internal/bench.runFig9":            "other",
		"runtime.mapassign_fast64":                "",
		"main.main":                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
