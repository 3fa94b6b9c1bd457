package main

import (
	"fmt"
	"runtime"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/exec/closure"
	"pea/internal/ir"
	"pea/internal/opt"
	"pea/internal/pea"
	"pea/internal/rt"
	"pea/internal/sched"
	"pea/internal/testprog"
	"pea/internal/vm"
)

// compileItem is one compilation unit of compile-cold: a method entry or an
// OSR entry at a loop header, compiled against its program's profiled VM.
type compileItem struct {
	vm    *vm.VM
	m     *bc.Method
	entry int // broker.NoOSR, or the loop-header bci of an OSR compile
}

func (it compileItem) String() string {
	if it.entry == broker.NoOSR {
		return it.m.QualifiedName()
	}
	return fmt.Sprintf("%s@%d", it.m.QualifiedName(), it.entry)
}

// pipeline runs the VM's pipeline: PEA plus summaries, no cache, no store.
func (it compileItem) pipeline() (*ir.Graph, error) {
	if it.entry == broker.NoOSR {
		return it.vm.Compile(it.m)
	}
	return it.vm.CompileOSR(it.m, it.entry)
}

// compile runs the two steps the broker runs on a miss: the pipeline and
// closure lowering.
func (it compileItem) compile() (*ir.Graph, error) {
	g, err := it.pipeline()
	if err != nil {
		return nil, err
	}
	_, err = closure.New().Compile(g)
	return g, err
}

// loopHeaders returns the targets of m's backward branches, in order.
func loopHeaders(m *bc.Method) []int {
	seen := map[int]bool{}
	var out []int
	for pc := range m.Code {
		in := &m.Code[pc]
		if in.Op.IsBranch() && in.Target() <= pc && !seen[in.Target()] {
			seen[in.Target()] = true
			out = append(out, in.Target())
		}
	}
	return out
}

// compileWarmupIters is how many interpreted iterations profile each
// subject before its methods are compiled.
const compileWarmupIters = 2

// compileSet is compile-cold's set-up product.
type compileSet struct {
	items []compileItem
	// interp is the time the interpreted warm-up iterations of the
	// subjects took, over interpIters iterations.
	interp      time.Duration
	interpIters int
}

// compileSetup links every subject and the testprog corpus, profiles each
// in an interpreter-only VM, resolves its summaries, and lists the
// compilation units.
func compileSetup(c *config, subs []program) (*compileSet, error) {
	set := &compileSet{}
	add := func(v *vm.VM, osr bool) {
		v.Summaries()
		for _, m := range v.Prog.Methods {
			if len(m.Code) == 0 {
				continue
			}
			set.items = append(set.items, compileItem{v, m, broker.NoOSR})
			if osr {
				for _, h := range loopHeaders(m) {
					set.items = append(set.items, compileItem{v, m, h})
				}
			}
		}
	}
	for i, p := range subs {
		opts := steadyOptions(vm.EAPartial, vmSeed(c.seed, i))
		opts.Interpret = true
		s, err := newSubjectVM(p, opts)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for k := 0; k < compileWarmupIters; k++ {
			if err := s.call(); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", p.name, err)
			}
		}
		set.interp += time.Since(t0)
		set.interpIters += compileWarmupIters
		add(s.vm, p.spec != nil)
	}
	corpus := testprog.Corpus()
	if c.smoke {
		corpus = corpus[:6]
	}
	for _, tp := range corpus {
		opts := steadyOptions(vm.EAPartial, 1)
		opts.Interpret = true
		opts.MaxSteps = 50_000_000
		v := vm.New(tp.Prog, opts)
		for _, set := range tp.ArgSets {
			args := make([]rt.Value, len(set))
			for i, a := range set {
				args[i] = rt.IntValue(a)
			}
			// Some corpus entries trap by design; the profile is what
			// matters here.
			_, _ = v.Call(tp.Entry, args)
		}
		add(v, false)
	}
	return set, nil
}

// runCompileCold is the compile-cold workload: one goroutine compiles every
// unit in turn, in whole rounds; the first round is not timed.
func runCompileCold(c *config) (*outcome, error) {
	subs, err := subjects(c)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	setupS, set, err := setupTimes(setupRuns, func() (*compileSet, error) { return compileSetup(c, subs) })
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS
	items := set.items

	// The untimed first round: its graphs are checked after the timed
	// phase, and a traced run compares its replay against their dumps.
	first := make([]*ir.Graph, len(items))
	var dumps []string
	if c.trace {
		dumps = make([]string, len(items))
	}
	for i, it := range items {
		g, err := it.pipeline()
		if err == nil && dumps != nil {
			dumps[i] = ir.Dump(g)
		}
		if err == nil {
			_, err = closure.New().Compile(g)
		}
		if err != nil {
			out.fail("compiling %s: %v", it, err)
			continue
		}
		first[i] = g
	}

	var tr *tracer
	var n replayCounts
	if c.trace {
		tr = newTracer()
		out.layer["interp.us_per_iter"] = set.interp.Seconds() * 1e6 / float64(set.interpIters)
		srcs := make([]string, len(subs))
		for i, p := range subs {
			srcs[i] = p.src
		}
		if err := frontLayers(tr, srcs, out); err != nil {
			return nil, err
		}
	}
	lat := make([]int64, 0, 1<<19)
	var nodes, traced int64
	var sp split
	var skip memSample
	m0 := readMem()
	runtime.LockOSThread()
	start := time.Now()
	for round := 0; round < c.minRounds() || time.Since(start) < c.seconds; round++ {
		rtr := sp.tracer(tr, round)
		from := len(lat)
		r0 := processCPU()
		for i, it := range items {
			if rtr != nil {
				// A traced round replays the pipeline stage by stage; the
				// first one must reproduce the VM's graphs exactly.
				rtr.nextOp()
				var dump *string
				var got string
				if traced == 0 {
					dump = &got
				}
				if err := it.replay(rtr, &n, dump); err != nil {
					out.fail("replaying %s: %v", it, err)
				} else if dump != nil {
					out.layer["replay.methods"]++
					if got != dumps[i] {
						out.layer["replay.mismatches"]++
						out.wrong("replay of %s disagrees with the VM's pipeline", it)
					}
				}
				continue
			}
			t0 := threadCPU()
			g, err := it.compile()
			lat = append(lat, int64(threadCPU()-t0))
			if err != nil {
				out.fail("compiling %s: %v", it, err)
				continue
			}
			nodes += int64(g.NumNodes())
		}
		cpu := processCPU() - r0
		var k float64
		skip.exclude(func() { k = c.host.scale() })
		scaleAll(lat[from:], k)
		sp.add(rtr, int64(len(items)), time.Duration(float64(cpu)*k))
		if rtr != nil {
			traced += int64(len(items))
		}
	}
	runtime.UnlockOSThread()
	m1 := readMem().minus(skip)
	ops, cpu := sp.total()
	out.attempted = int64(len(items)) + ops
	out.e2e["ops_per_s"] = float64(ops) / cpu.Seconds()
	latencies(out.e2e, lat)
	goAllocs(out, m0, m1, ops)
	out.layer["code_nodes_per_op"] = float64(nodes) / float64(len(lat))
	lat = nil
	if c.trace {
		sp.report(out)
		compileLayers(tr, &n, traced, out)
		if err := tr.write(c.traceDir(), fmt.Sprintf("compile-cold-seed%d.json", c.seed)); err != nil {
			return nil, err
		}
	}

	for i, g := range first {
		if g == nil {
			continue
		}
		if err := check.Graph(g, check.Strict); err != nil {
			out.wrong("%s fails the strict check: %v", items[i], err)
		}
	}
	first = nil
	liveHeap(out)
	runtime.KeepAlive(items)
	return out, nil
}

// timedPhase wraps an opt phase in a span named after it.
type timedPhase struct {
	ph opt.Phase
	tr *tracer
	// inlined accumulates the nodes the inliner added.
	inlined *int64
}

func (p timedPhase) Name() string { return p.ph.Name() }

func (p timedPhase) Run(g *ir.Graph) (bool, error) {
	before := 0
	if p.inlined != nil {
		before = g.NumNodes()
	}
	sp := p.tr.begin("opt." + p.ph.Name())
	changed, err := p.ph.Run(g)
	p.tr.end(sp)
	if p.inlined != nil {
		*p.inlined += int64(g.NumNodes() - before)
	}
	return changed, err
}

// replayCounts accumulates what the traced replay observed.
type replayCounts struct {
	built, afterPEA, inlined      int64
	rounds, virtualized, matSites int64
}

// replay runs the stage sequence of the VM's compile path from outside,
// one span per stage: build, the opt phases (each wrapped in a timing
// phase), sched.Compute on the graph entering PEA, pea.Run, the post-EA
// opt.Standard() pipeline, and closure lowering. dump, when non-nil,
// receives the graph's ir.Dump before lowering.
func (it compileItem) replay(tr *tracer, n *replayCounts, dump *string) error {
	wrap := func(phases []opt.Phase) []opt.Phase {
		out := make([]opt.Phase, len(phases))
		for i, ph := range phases {
			tp := timedPhase{ph: ph, tr: tr}
			if ph.Name() == "inline" {
				tp.inlined = &n.inlined
			}
			out[i] = tp
		}
		return out
	}
	sp := tr.begin("build")
	var g *ir.Graph
	var err error
	if it.entry == broker.NoOSR {
		g, err = build.Build(it.m)
	} else {
		g, err = build.BuildOSR(it.m, it.entry)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	n.built += int64(g.NumNodes())
	sums := it.vm.Summaries()
	pre := &opt.Pipeline{Phases: wrap([]opt.Phase{
		&opt.Inliner{BuildGraph: build.Build, Program: it.vm.Prog, Profile: it.vm.Interp.Profile, Summaries: sums},
		opt.Canonicalize{},
		opt.SimplifyCFG{},
		opt.GVN{},
		opt.DCE{},
	})}
	sp = tr.begin("opt")
	err = pre.Run(g)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("sched")
	_, err = sched.Compute(g)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("pea")
	res, err := pea.Run(g, pea.Config{CalleeNoEscape: sums.ArgSafe})
	tr.end(sp)
	if err != nil {
		return err
	}
	n.rounds += int64(res.Rounds)
	n.virtualized += int64(res.VirtualizedAllocs)
	n.matSites += int64(res.MaterializeSites)
	n.afterPEA += int64(g.NumNodes())
	post := opt.Standard()
	post.Phases = wrap(post.Phases)
	sp = tr.begin("opt")
	err = post.Run(g)
	tr.end(sp)
	if err != nil {
		return err
	}
	g.CodeCycles = int64(g.NumNodes()) / 3
	if dump != nil {
		*dump = ir.Dump(g)
	}
	sp = tr.begin("closure.lower")
	_, err = closure.New().Compile(g)
	tr.end(sp)
	return err
}

// compileLayers derives the compiler's per-layer metrics, per compile,
// from the spans and counts of ops traced replays.
func compileLayers(tr *tracer, n *replayCounts, ops int64, out *outcome) {
	agg := tr.aggregate()
	per := func(v float64) float64 { return v / float64(ops) }
	bytes := func(name string) float64 {
		if st := agg[name]; st != nil {
			return per(float64(st.bytes))
		}
		return 0
	}
	out.layer["build.us"] = per(us(agg["build"]))
	out.layer["build.nodes"] = per(float64(n.built))
	out.layer["build.go_bytes"] = bytes("build")
	out.layer["opt.inline.nodes"] = per(float64(n.inlined))
	var runs int64
	for _, ph := range []string{"inline", "canonicalize", "simplify-cfg", "gvn", "dce"} {
		out.layer["opt."+ph+".us"] = per(us(agg["opt."+ph]))
		if st := agg["opt."+ph]; st != nil {
			runs += st.count
		}
	}
	out.layer["opt.phase_runs"] = per(float64(runs))
	out.layer["opt.go_bytes"] = bytes("opt")
	out.layer["sched.us"] = per(us(agg["sched"]))
	out.layer["pea.us"] = per(us(agg["pea"]))
	out.layer["pea.rounds"] = per(float64(n.rounds))
	out.layer["pea.go_bytes"] = bytes("pea")
	out.layer["pea.virtualized"] = per(float64(n.virtualized))
	out.layer["pea.materialize_sites"] = per(float64(n.matSites))
	out.layer["pea.nodes"] = per(float64(n.afterPEA))
	out.layer["closure.lower.us"] = per(us(agg["closure.lower"]))
	out.layer["closure.lower.go_bytes"] = bytes("closure.lower")
}
