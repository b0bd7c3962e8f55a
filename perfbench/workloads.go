package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"strings"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/ckpt"
)

// workload is one set of inputs the benchmark runs. Its set-up builds
// the inputs from the seed and loads or computes the references the
// outputs are checked against; each pass then runs the workload once.
type workload struct {
	name      string
	setupReps int
	setup     func(seed uint64, t *tally) (instance, error)
}

// instance is a set-up workload, ready to run passes.
type instance interface {
	// pass runs the workload once, checking every output into t.
	pass(tr *tracer, t *tally)
}

// Why each workload exists is in README.md.
var workloads = []workload{
	{name: "suite", setupReps: 15, setup: setupSuite},
	{name: "hostpar", setupReps: 2, setup: setupHostpar},
	{name: "check", setupReps: 3, setup: func(seed uint64, t *tally) (instance, error) {
		return setupCheck(seed, checkOps, checkTraces, false, t)
	}},
	{name: "check-tier", setupReps: 3, setup: func(seed uint64, t *tally) (instance, error) {
		return setupCheck(seed, checkTierOps, checkTierTraces, true, t)
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// resultsFile is the committed reference output of the suite, relative
// to the repository root the benchmark runs from.
const resultsFile = "RESULTS.md"

// hostparIDs are the experiments with host-parallel phases: the only
// code that reaches the simulator's sync gate.
var hostparIDs = []string{"fig9", "o1", "metadata", "scale", "tenants", "tiering", "online-ckpt"}

// hostparCPUs is the simulated CPU count of the hostpar workload.
const hostparCPUs = 4

// suiteRun runs experiments one after another and checks each one's
// markdown against its reference. Every pass runs them in a new order
// drawn from the seed: peak memory depends on the order, so the median
// over a run's passes covers several orders.
type suiteRun struct {
	cpus    int
	hostpar bool
	rng     *rand.Rand
	order   []bench.Experiment
	refs    map[string]string
}

func newSuiteRun(cpus int, hostpar bool, seed uint64, order []bench.Experiment, refs map[string]string) *suiteRun {
	return &suiteRun{cpus: cpus, hostpar: hostpar, rng: rand.New(rand.NewSource(int64(seed))), order: order, refs: refs}
}

func (s *suiteRun) pass(tr *tracer, t *tally) {
	s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
	bench.SetCPUs(s.cpus)
	bench.SetHostParallel(s.hostpar)
	for _, e := range s.order {
		md, err := runExperiment(tr, e)
		if err == nil && md != s.refs[e.ID] {
			err = errors.New("output differs from its reference")
		}
		t.unit(e.ID, err)
		t.work++
	}
}

func runExperiment(tr *tracer, e bench.Experiment) (string, error) {
	sp := tr.begin("bench." + e.ID)
	res, err := e.Run()
	tr.end(sp)
	if err != nil {
		return "", err
	}
	// o1bench -format md prints each result followed by a newline.
	return res.Markdown() + "\n", nil
}

// experiments returns the named experiments.
func experiments(ids []string) ([]bench.Experiment, error) {
	out := make([]bench.Experiment, len(ids))
	for i, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			return nil, fmt.Errorf("no experiment %q", id)
		}
		out[i] = e
	}
	return out, nil
}

// warmupIDs are cheap experiments the suite's set-up runs, and checks,
// so that lazy initialisation is done before the first timed pass.
var warmupIDs = []string{"fig6a", "fig6b", "walkdepth", "ablate-huge"}

// setupSuite loads every experiment's reference section of RESULTS.md
// (the suite at one simulated CPU must reproduce it byte for byte) and
// warms up.
func setupSuite(seed uint64, t *tally) (instance, error) {
	data, err := os.ReadFile(resultsFile)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range bench.All() {
		ids = append(ids, e.ID)
	}
	order, err := experiments(ids)
	if err != nil {
		return nil, err
	}
	warm, err := experiments(warmupIDs)
	if err != nil {
		return nil, err
	}
	refs := resultSections(string(data))
	newSuiteRun(1, false, seed, warm, refs).pass(nil, t)
	return newSuiteRun(1, false, seed, order, refs), nil
}

var sectionStart = regexp.MustCompile(`(?m)^## `)

// resultSections splits RESULTS.md into one section per experiment,
// keyed by ID: each runs from its "## <id> — <title>" heading to the
// next heading.
func resultSections(md string) map[string]string {
	out := map[string]string{}
	starts := sectionStart.FindAllStringIndex(md, -1)
	for i, s := range starts {
		end := len(md)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		sec := md[s[0]:end]
		id, _, _ := strings.Cut(strings.TrimPrefix(sec, "## "), " — ")
		out[id] = sec
	}
	return out
}

// setupHostpar computes the reference: the hostpar experiments run
// serially at the same simulated CPU count. Host-parallel execution
// must reproduce it byte for byte.
func setupHostpar(seed uint64, t *tally) (instance, error) {
	order, err := experiments(hostparIDs)
	if err != nil {
		return nil, err
	}
	bench.SetCPUs(hostparCPUs)
	bench.SetHostParallel(false)
	refs := map[string]string{}
	for _, e := range order {
		md, err := runExperiment(nil, e)
		t.unit(e.ID+" (serial reference)", err)
		refs[e.ID] = md
	}
	return newSuiteRun(hostparCPUs, true, seed, order, refs), nil
}

// Shape of the checker workloads: each pass replays this many traces
// of this length. Without the tier engine a trace's cost is mostly its
// invariant sweeps, whose number does not depend on the length, so
// check averages a few short traces over their seeds. With it the
// migration work per op grows with the trace, so check-tier replays
// one longer trace, in which migration is the largest share.
const (
	checkTraces     = 2
	checkOps        = 1000
	checkTierTraces = 1
	checkTierOps    = 4000
)

// ciOps and ciCheckEvery are o1check's CI shape: -ops 20000 -cpus 4
// -check-every 1024 (-crash-recover -incremental is the recover stage
// of a pass).
const (
	ciOps        = 20000
	ciCheckEvery = 1024
)

// checkOptions is the CI shape scaled to a shorter trace: invariant
// sweeps stay as dense per op as in CI, about 20 per trace.
func checkOptions(seed uint64, ops int, tiered bool) check.Options {
	every := max(1, ciCheckEvery*ops/ciOps)
	return check.Options{Seed: seed, Ops: ops, CPUs: 4, CheckEvery: every, Tier: tiered}
}

// checkRun replays seeded traces on every configuration and puts each
// through the incremental crash-recover stage and the checkpoint
// chain's save/load/verify path.
type checkRun struct{ traces []checkTrace }

// checkTrace is one trace with its checkpoint and crash points.
type checkTrace struct {
	opts     check.Options
	baseAt   int
	deltaAts []int
	crashAt  int
	torn     bool
}

// setupCheck derives the traces' seeds from the workload seed. Every
// trace checkpoints and crashes at the same fractions of its length,
// with a seeded torn tail, so that only the traces' contents vary with
// the seed. Replaying an eighth of the first trace on all worlds warms
// up.
func setupCheck(seed uint64, ops, traces int, tiered bool, t *tally) (instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	c := &checkRun{}
	for i := 0; i < traces; i++ {
		ct := checkTrace{opts: checkOptions(seed*uint64(traces)+uint64(i), ops, tiered)}
		ct.crashAt = ops * 7 / 8
		ct.baseAt = ct.crashAt / 3
		for d := 1; d <= 3; d++ {
			ct.deltaAts = append(ct.deltaAts, ct.baseAt+(ct.crashAt-ct.baseAt)*d/4)
		}
		ct.torn = rng.Intn(2) == 1
		c.traces = append(c.traces, ct)
	}
	warm := c.traces[0].opts
	warm.Ops /= 8
	rep, err := check.Run(warm)
	if err != nil {
		return nil, err
	}
	t.unit("warm-up replay", reportErr(rep))
	return c, nil
}

func (c *checkRun) pass(tr *tracer, t *tally) {
	for _, ct := range c.traces {
		for _, cfg := range check.AllConfigs {
			o := ct.opts
			o.Configs = []string{cfg}

			sp := tr.begin("check.replay." + cfg)
			rep, err := check.Run(o)
			tr.end(sp)
			if err == nil {
				err = reportErr(rep)
			}
			t.unit("replay "+cfg, err)
			t.work += float64(o.Ops)

			sp = tr.begin("check.recover." + cfg)
			_, f, err := check.CrashRecoverIncremental(o, ct.baseAt, ct.deltaAts, ct.crashAt, ct.torn)
			tr.end(sp)
			if err == nil && f != nil {
				err = f
			}
			t.unit("recover "+cfg, err)

			t.unit("chain "+cfg, ct.chain(tr, t, o, cfg))
		}
	}
}

// chain builds the configuration's checkpoint chain, saves it, loads
// it back and verifies the loaded chain: o1snap's save/restore path.
func (c *checkTrace) chain(tr *tracer, t *tally, o check.Options, cfg string) error {
	sp := tr.begin("ckpt.build")
	ch, err := check.BuildChain(cfg, o, c.baseAt, c.deltaAts)
	tr.end(sp)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sp = tr.begin("ckpt.save")
	err = ch.Save(&buf)
	tr.end(sp)
	if err != nil {
		return err
	}
	t.counts["ckpt.chain_bytes"] += float64(buf.Len())
	sp = tr.begin("ckpt.load")
	loaded, err := ckpt.Load(&buf)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("ckpt.verify")
	err = check.VerifyChain(loaded)
	tr.end(sp)
	return err
}

// probe replays the traces on every configuration with no periodic
// invariant sweeps (the end-of-trace sweep still runs): the periodic
// sweeps' cost is the difference from the replay spans.
func (c *checkRun) probe(tr *tracer, t *tally) map[string]float64 {
	root := tr.begin("probe")
	for _, ct := range c.traces {
		for _, cfg := range check.AllConfigs {
			o := ct.opts
			o.Configs = []string{cfg}
			o.CheckEvery = 0
			sp := tr.begin("check.replay_nosweep")
			rep, err := check.Run(o)
			tr.end(sp)
			if err == nil {
				err = reportErr(rep)
			}
			t.unit("replay without sweeps "+cfg, err)
		}
	}
	tr.end(root)
	return map[string]float64{"check.replay_nosweep.ms": tr.selfTimesMS(root)["check.replay_nosweep"]}
}

// reportErr turns a checker report into the error of its unit.
func reportErr(rep *check.Report) error {
	if rep.Failure != nil {
		return rep.Failure
	}
	return nil
}
