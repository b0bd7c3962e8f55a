package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/tier"
)

// minPasses is the fewest measured passes a run makes, whatever
// --seconds says: the determinism guard needs a second pass to compare
// with the first, and the median of three is not moved by one pass
// that a burst of load on the host slows.
const minPasses = 3

// tally collects what one pass (or one set-up) produced: the units it
// checked, the ones whose output was wrong, and the simulator counts
// the determinism guard compares between passes.
type tally struct {
	units    int
	failures []string
	work     float64            // world-ops (checker) or experiments (suite) done
	counts   map[string]float64 // deterministic per-pass counts (the guard)
}

func newTally() *tally { return &tally{counts: map[string]float64{}} }

// unit records one checked unit; a non-nil err marks its output wrong.
func (t *tally) unit(name string, err error) {
	t.units++
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("%s: %v", name, err))
	}
}

// guard compares a pass's deterministic counts with the first pass's.
// Every count the simulator makes deterministically must repeat
// exactly; a mismatch is a failed unit.
func (t *tally) guard(first *tally) {
	var diffs []string
	for _, k := range sortedKeys(first.counts) {
		if t.counts[k] != first.counts[k] {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", k, t.counts[k], first.counts[k]))
		}
	}
	for _, k := range sortedKeys(t.counts) {
		if _, ok := first.counts[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s %v appeared", k, t.counts[k]))
		}
	}
	var err error
	if len(diffs) > 0 {
		err = fmt.Errorf("counts differ from the first pass: %s", strings.Join(diffs, ", "))
	}
	t.unit("determinism guard", err)
}

// passMeasure is one pass's host cost and per-layer readings.
type passMeasure struct {
	traced bool
	wall   float64 // s
	cpu    float64 // s, user+sys
	rssMB  float64
	work   float64
	steal  float64            // s taken from the machine's CPUs by the hypervisor
	layer  map[string]float64 // per-layer readings (traced passes)
}

// result is everything one run of a workload measured.
type result struct {
	setups            []float64
	passes            []passMeasure
	attempted, failed int
	failures          []string
	spans             []span
	profile           profShares
	probe             map[string]float64 // traced-only probes outside the passes
	rssReset          bool
}

// measure sets the workload up setupReps times (reporting the median),
// then runs passes for about `seconds`, and at least minPasses. A
// traced run alternates untraced and traced passes, so the tracing
// overhead is measured in the same process: per-layer metrics come
// from the traced passes only.
func measure(w workload, seed uint64, seconds float64, traced bool) (*result, error) {
	res := &result{}
	var inst instance
	for i := 0; i < w.setupReps; i++ {
		st := newTally()
		t0 := time.Now()
		in, err := w.setup(seed, st)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.add(st)
		inst = in
	}

	tr := newTracer(fmt.Sprintf("%s-s%d", w.name, seed))
	var first *tally
	start := time.Now()
	for i := 0; i < minPasses || res.moreTime(start, seconds); i++ {
		tracedPass := traced && i%2 == 1
		t := newTally()
		pm := res.runPass(inst, t, tr, tracedPass, i)
		if first == nil {
			first = t
		} else {
			t.guard(first)
		}
		res.add(t)
		res.passes = append(res.passes, pm)
	}
	if traced {
		if c, ok := inst.(*checkRun); ok {
			t := newTally()
			res.probe = c.probe(tr, t)
			res.add(t)
		}
		res.spans = tr.finish()
	}
	return res, nil
}

// moreTime reports whether another pass would end nearer to `seconds`
// after start than stopping now does.
func (r *result) moreTime(start time.Time, seconds float64) bool {
	walls := make([]float64, len(r.passes))
	for i, p := range r.passes {
		walls[i] = p.wall
	}
	return time.Since(start).Seconds()+median(walls)/2 < seconds
}

func (r *result) add(t *tally) {
	r.attempted += t.units
	r.failed += len(t.failures)
	r.failures = append(r.failures, t.failures...)
}

// runPass runs and measures one pass. Freed heap is returned to the OS
// and the kernel's peak-RSS mark reset first, so the peak belongs to
// this pass.
func (r *result) runPass(inst instance, t *tally, tr *tracer, traced bool, i int) passMeasure {
	r.rssReset = resetPeakRSS()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readCPUClasses()
	sync0 := sim.TelemetrySnapshot()
	tier0 := tier.TelemetrySnapshot()
	var ptr *tracer
	var prof *profiler
	if traced {
		ptr = tr
		ptr.pass = i
		prof = startProfile()
	}
	cpu0 := cpuSeconds()
	steal0 := stealSeconds()
	wall0 := time.Now()

	root := ptr.begin("pass")
	inst.pass(ptr, t)
	ptr.end(root)

	wall := time.Since(wall0).Seconds()
	cpu := cpuSeconds() - cpu0
	if prof != nil {
		r.profile.add(prof.stop())
	}
	pm := passMeasure{traced: traced, wall: wall, cpu: cpu, rssMB: peakRSSMB(), work: t.work,
		steal: stealSeconds() - steal0}

	syncD := sim.TelemetrySnapshot().Sub(sync0)
	tierD := tier.TelemetrySnapshot().Sub(tier0)
	t.counts["sim.sync_points"] = float64(syncD.SyncPoints)
	t.counts["sim.ipi_rounds"] = float64(syncD.IPIRounds)
	t.counts["sim.coalesced_invals"] = float64(syncD.CoalescedInvals)
	t.counts["tier.promotions"] = float64(tierD.Promotions)
	t.counts["tier.demotions"] = float64(tierD.Demotions)
	t.counts["tier.pages_moved"] = float64(tierD.PagesMoved)
	t.counts["tier.extent_moves"] = float64(tierD.ExtentMoves)
	t.counts["tier.splits"] = float64(tierD.Splits)
	t.counts["tier.scans"] = float64(tierD.Scans)
	t.counts["tier.stalls"] = float64(tierD.Stalls)
	if !traced {
		return pm
	}

	runtime.ReadMemStats(&ms1)
	gc1 := readCPUClasses()
	l := map[string]float64{}
	for k, v := range t.counts {
		l[k] = v
	}
	moved := float64(tierD.Promotions + tierD.Demotions)
	l["tier.useful_ratio"] = ratio(moved, moved+float64(tierD.Stalls))
	l["sim.mean_domain_cpus"] = ratio(float64(syncD.DomainCPUs), float64(syncD.SyncPoints))
	l["sim.barrier_wait_ms"] = float64(syncD.BarrierWaitNs) / 1e6
	l["runtime.alloc_objects"] = float64(ms1.Mallocs - ms0.Mallocs)
	l["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	l["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	l["runtime.gc_cpu_share"] = ratio(gc1.gc-gc0.gc, gc1.busy-gc0.busy)
	for name, ms := range tr.selfTimesMS(root) {
		l[name+".ms"] += ms
	}
	pm.layer = l
	return pm
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuClasses reads the runtime's own CPU accounting: GC time and all
// non-idle time (user code, GC and scavenging).
type cpuClasses struct{ gc, busy float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuClasses{gc: v(0), busy: v(0) + v(1) + v(2)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// passesOf returns the passes of one kind: traced or untraced.
func (r *result) passesOf(traced bool) []passMeasure {
	var out []passMeasure
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}

func medianOf(ps []passMeasure, f func(passMeasure) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEnd returns the end-to-end metrics: medians over the untraced
// passes, which every run has.
func (r *result) endToEnd() map[string]metric {
	ps := r.passesOf(false)
	wall := medianOf(ps, func(p passMeasure) float64 { return p.wall })
	return map[string]metric{
		"setup_s":     {median(r.setups), "s"},
		"wall_s":      {wall, "s"},
		"cpu_s":       {medianOf(ps, func(p passMeasure) float64 { return p.cpu }), "s"},
		"units_per_s": {medianOf(ps, func(p passMeasure) float64 { return p.work / p.wall }), "1/s"},
		"peak_rss_mb": {medianOf(ps, func(p passMeasure) float64 { return p.rssMB }), "MB"},
	}
}

// layerMetrics returns the per-layer metrics of a traced run: every
// name is present on every workload, zero where the layer did no work.
func (r *result) layerMetrics() map[string]metric {
	ps := r.passesOf(true)
	out := map[string]metric{}
	for _, n := range layerNames() {
		out[n.name] = metric{medianOf(ps, func(p passMeasure) float64 { return p.layer[n.name] }), n.unit}
	}
	for k, v := range r.probe {
		out[k] = metric{v, out[k].Unit}
	}
	for k, v := range r.profile.shares() {
		out[k] = metric{v, out[k].Unit}
	}
	untraced := medianOf(r.passesOf(false), func(p passMeasure) float64 { return p.wall })
	traced := medianOf(ps, func(p passMeasure) float64 { return p.wall })
	out["trace.overhead_s"] = metric{traced - untraced, "s"}
	return out
}

func (r *result) metrics(traced bool) map[string]metric {
	if traced {
		return r.layerMetrics()
	}
	return r.endToEnd()
}

type layerName struct{ name, unit string }

// layerNames lists every per-layer metric a traced run prints, in
// print order.
func layerNames() []layerName {
	var out []layerName
	for _, e := range bench.All() {
		out = append(out, layerName{"bench." + e.ID + ".ms", "ms"})
	}
	for _, stage := range []string{"replay", "recover"} {
		for _, cfg := range check.AllConfigs {
			out = append(out, layerName{"check." + stage + "." + cfg + ".ms", "ms"})
		}
	}
	out = append(out, layerName{"check.replay_nosweep.ms", "ms"})
	for _, s := range []string{"build", "save", "load", "verify"} {
		out = append(out, layerName{"ckpt." + s + ".ms", "ms"})
	}
	out = append(out, layerName{"ckpt.chain_bytes", "bytes"}, layerName{"pass.ms", "ms"})
	for _, s := range []string{"pages_moved", "extent_moves", "splits", "scans", "stalls"} {
		out = append(out, layerName{"tier." + s, "count"})
	}
	out = append(out,
		layerName{"tier.useful_ratio", "ratio"},
		layerName{"sim.sync_points", "count"},
		layerName{"sim.mean_domain_cpus", "cpus"},
		layerName{"sim.barrier_wait_ms", "ms"},
		layerName{"sim.ipi_rounds", "count"},
		layerName{"sim.coalesced_invals", "count"},
		layerName{"runtime.alloc_objects", "count"},
		layerName{"runtime.alloc_mb", "MB"},
		layerName{"runtime.gc_cycles", "count"},
		layerName{"runtime.gc_cpu_share", "ratio"},
	)
	for _, p := range profPackages {
		out = append(out, layerName{"prof." + p + ".share", "ratio"})
	}
	out = append(out,
		layerName{"prof.other.share", "ratio"},
		layerName{"prof.runtime.share", "ratio"},
		layerName{"prof.samples", "count"},
		layerName{"trace.overhead_s", "s"},
	)
	return out
}

// printSummary writes the human-readable report of one workload.
func printSummary(w io.Writer, name string, r *result, traced bool) {
	untraced := r.passesOf(false)
	fmt.Fprintf(w, "workload %s: %d set-ups, %d passes (%d traced), %d units attempted, %d failed\n",
		name, len(r.setups), len(r.passes), len(r.passes)-len(untraced), r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
	if !r.rssReset {
		fmt.Fprintln(w, "  note: peak RSS could not be reset per pass; peak_rss_mb is the process peak")
	}
	walls := make([]string, len(r.passes))
	steal := 0.0
	for i, p := range r.passes {
		walls[i] = fmt.Sprintf("%.3f", p.wall)
		steal += p.steal
	}
	fmt.Fprintf(w, "  pass wall_s: %s (host CPU steal during passes: %.2f s)\n", strings.Join(walls, " "), steal)
	e := r.endToEnd()
	for _, k := range sortedKeys(e) {
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", k, e[k].Value, e[k].Unit)
	}
	fmt.Fprintf(w, "  %-16s %14.6g %s\n", "failed_share", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	if name == "check" || name == "check-tier" {
		fmt.Fprintf(w, "  %-16s %14.6g %s\n", "world_ops_per_s", e["units_per_s"].Value, "1/s")
	}
	if !traced {
		return
	}
	// Span metrics (*.ms) are self times: span duration minus the time
	// its child spans cover, summed over a pass.
	l := r.layerMetrics()
	for _, n := range layerNames() {
		if v := l[n.name].Value; v != 0 || n.name == "trace.overhead_s" {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", n.name, v, n.unit)
		}
	}
}
