package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pea/internal/bc"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/rt"
	"pea/internal/vm"
)

// steadyWarmup is the number of iterations each subject runs during
// set-up; the compile threshold is 10, so every hot method has tiered up
// before the timed phase.
const (
	steadyWarmup    = 16
	steadyThreshold = 10
	// allocWindow is the number of timed rounds over which guest
	// allocations are compared across PEA, EA and the interpreter.
	allocWindow = 8
)

// lookup resolves "Class.method" in p.
func lookup(p *bc.Program, qname string) (*bc.Method, error) {
	cls, meth, ok := strings.Cut(qname, ".")
	if !ok {
		return nil, fmt.Errorf("bad method name %q", qname)
	}
	c := p.ClassByName(cls)
	if c == nil {
		return nil, fmt.Errorf("no class %s", cls)
	}
	m := c.MethodByName(meth)
	if m == nil {
		return nil, fmt.Errorf("no method %s", qname)
	}
	return m, nil
}

// subjectVM is one linked subject with its own VM.
type subjectVM struct {
	p    program
	vm   *vm.VM
	iter *bc.Method
	// rets holds every iteration's return value, warm-up included, in
	// call order.
	rets []int64
}

// newSubjectVM links p, creates a VM with opts and runs p's init method.
func newSubjectVM(p program, opts vm.Options) (*subjectVM, error) {
	prog, err := mj.Compile(p.src, "Main.main")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	s := &subjectVM{p: p, vm: vm.New(prog, opts)}
	if s.iter, err = lookup(prog, p.iter); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	if p.init != "" {
		m, err := lookup(prog, p.init)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if _, err := s.vm.Call(m, nil); err != nil {
			return nil, fmt.Errorf("%s init: %w", p.name, err)
		}
	}
	return s, nil
}

// call runs one iteration and records its return value.
func (s *subjectVM) call() error {
	v, err := s.vm.Call(s.iter, s.p.args)
	s.rets = append(s.rets, v.I)
	return err
}

func steadyOptions(mode vm.EAMode, seed uint64) vm.Options {
	return vm.Options{
		EA:               mode,
		Backend:          vm.BackendClosure,
		Summaries:        true,
		CompileThreshold: steadyThreshold,
		Seed:             seed,
	}
}

// runSteady is the table1-steady workload: every subject tiered up in its
// own VM during set-up, then one goroutine calls each subject's iteration
// method in turn, in whole rounds, until the timed phase ends.
func runSteady(c *config) (*outcome, error) {
	subs, err := subjects(c)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	// A traced run counts the tier-up compiles' PEA decisions of the
	// set-up it keeps (the last).
	var met *obs.Metrics
	setupS, vms, err := setupTimes(setupRuns, func() ([]*subjectVM, error) {
		if c.trace {
			met = obs.NewMetrics()
		}
		return steadySetup(subs, c.seed, met)
	})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS

	n := len(vms)
	// Size the sample buffers for a long run so the timed loop rarely
	// grows them.
	capOps := 1 << 18
	lat := make([]int64, 0, capOps)
	for _, s := range vms {
		s.rets = append(make([]int64, 0, capOps/n+steadyWarmup), s.rets...)
	}
	guestStart := make([]rt.Stats, n)
	windowAllocs := make([]int64, n)
	vmStart := make([]vm.Stats, n)
	for i, s := range vms {
		guestStart[i] = s.vm.Env.Stats
		vmStart[i] = s.vm.Stats()
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	var sp split
	var skip memSample
	m0 := readMem()
	runtime.LockOSThread()
	start := time.Now()
	for round := 0; round < max(allocWindow, c.minRounds()) || time.Since(start) < c.seconds; round++ {
		if round == allocWindow {
			for i, s := range vms {
				windowAllocs[i] = s.vm.Env.Stats.Allocations - guestStart[i].Allocations
			}
		}
		rtr := sp.tracer(tr, round)
		from := len(lat)
		r0 := processCPU()
		for _, s := range vms {
			rtr.nextOp()
			id := rtr.begin("exec." + s.p.name)
			t0 := threadCPU()
			err := s.call()
			d := threadCPU() - t0
			rtr.end(id)
			lat = append(lat, int64(d))
			if err != nil {
				out.fail("%s iteration %d: %v", s.p.name, len(s.rets)-1, err)
			}
		}
		cpu := processCPU() - r0
		var k float64
		skip.exclude(func() { k = c.host.scale() })
		scaleAll(lat[from:], k)
		sp.add(rtr, int64(n), time.Duration(float64(cpu)*k))
	}
	runtime.UnlockOSThread()
	m1 := readMem().minus(skip)
	ops, cpu := sp.total()
	out.attempted = ops
	out.e2e["ops_per_s"] = float64(ops) / cpu.Seconds()
	latencies(out.e2e, lat)
	// The median op sits between two programs' clusters of iteration
	// times, where a small shift of either moves it far; the median of
	// the programs' median iteration times is the steady middle.
	perProg := make([]float64, n)
	for i := range perProg {
		var xs []float64
		for j := i; j < len(lat); j += n {
			xs = append(xs, float64(lat[j]))
		}
		perProg[i] = median(xs) / 1e3
	}
	out.e2e["latency_p50_us"] = median(perProg)
	goAllocs(out, m0, m1, ops)
	lat = nil

	var guest rt.Stats
	for i, s := range vms {
		d := s.vm.Env.Stats.Sub(guestStart[i])
		guest.Allocations += d.Allocations
		guest.Materializations += d.Materializations
		guest.MonitorOps += d.MonitorOps
		guest.FieldLoads += d.FieldLoads
		guest.FieldStores += d.FieldStores
		out.layer["vm.deopts"] += float64(d.Deopts)
		out.layer["vm.recompilations"] += float64(s.vm.Stats().Recompilations - vmStart[i].Recompilations)
	}
	fo := float64(ops)
	out.layer["rt.guest_allocs_per_iter"] = float64(guest.Allocations) / fo
	out.layer["rt.materializations_per_iter"] = float64(guest.Materializations) / fo
	out.layer["rt.monitor_ops_per_iter"] = float64(guest.MonitorOps) / fo
	out.layer["rt.field_accesses_per_iter"] = float64(guest.FieldLoads+guest.FieldStores) / fo
	if guest.Allocations > 0 {
		out.layer["go.mallocs_per_guest_alloc"] = float64(m1.mallocs-m0.mallocs) / float64(guest.Allocations)
	}
	if c.trace {
		sp.report(out)
		srcs := make([]string, len(subs))
		for i, p := range subs {
			srcs[i] = p.src
		}
		if err := frontLayers(tr, srcs, out); err != nil {
			return nil, err
		}
		for name, st := range tr.aggregate() {
			if strings.HasPrefix(name, "exec.") {
				out.layer[name+".us_per_iter"] = float64(st.total) / float64(st.count) / 1e3
			}
		}
		if err := tr.write(c.traceDir(), fmt.Sprintf("table1-steady-seed%d.json", c.seed)); err != nil {
			return nil, err
		}
		// Per compile, as compile-cold reports them.
		snap := met.Snapshot()
		if compiles := float64(snap.Counters[obs.MetricVMCompiles]); compiles > 0 {
			out.layer["pea.virtualized"] = float64(snap.Counters[obs.MetricVirtualized]) / compiles
			out.layer["pea.materialize_sites"] = float64(snap.Counters[obs.MetricMaterialized]) / compiles
		}
	}

	checkSteady(c, vms, windowAllocs, out)
	for _, s := range vms {
		s.rets = nil
	}
	liveHeap(out)
	runtime.KeepAlive(vms)
	return out, nil
}

// steadySetup links every subject, runs its init method and tiers it up.
func steadySetup(subs []program, seed int64, met *obs.Metrics) ([]*subjectVM, error) {
	vms := make([]*subjectVM, 0, len(subs))
	for i, p := range subs {
		opts := steadyOptions(vm.EAPartial, vmSeed(seed, i))
		opts.Metrics = met
		s, err := newSubjectVM(p, opts)
		if err != nil {
			return nil, err
		}
		for k := 0; k < steadyWarmup; k++ {
			if err := s.call(); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", p.name, err)
			}
		}
		if s.vm.CompiledGraph(s.iter) == nil {
			return nil, fmt.Errorf("%s: %s did not tier up during set-up", p.name, p.iter)
		}
		for m, err := range s.vm.FailedCompilations() {
			return nil, fmt.Errorf("%s: compiling %s: %w", p.name, m.QualifiedName(), err)
		}
		vms = append(vms, s)
	}
	return vms, nil
}

// checkSteady compares every iteration's return value and the printed
// output with an interpreter-only VM replaying the same call sequence, and
// checks guest allocations over the first timed rounds: PEA <= EA <=
// interpreter, strictly where the Table-1 spec has removable allocations.
// The replays run on two goroutines; nothing else runs at this point.
func checkSteady(c *config, vms []*subjectVM, windowPEA []int64, out *outcome) {
	type ref struct {
		rets    []int64
		output  []int64
		window  int64 // interpreter allocations over the window
		ea      int64 // flow-insensitive EA allocations over the window
		err     error
		iterDur time.Duration
	}
	refs := make([]ref, len(vms))
	var wg sync.WaitGroup
	var next sync.Mutex
	idx := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= len(vms) {
					return
				}
				r := &refs[i]
				s := vms[i]
				r.rets, r.output, r.window, r.iterDur, r.err = reference(s.p, vmSeed(c.seed, i), len(s.rets), true)
				if r.err == nil {
					_, _, r.ea, _, r.err = reference(s.p, vmSeed(c.seed, i), steadyWarmup+allocWindow, false)
				}
			}
		}()
	}
	wg.Wait()

	var interpIters int64
	var interpDur time.Duration
	for i, s := range vms {
		r := refs[i]
		if r.err != nil {
			out.fail("%s reference: %v", s.p.name, r.err)
			continue
		}
		interpIters += int64(len(r.rets))
		interpDur += r.iterDur
		for k, v := range s.rets {
			if k >= len(r.rets) || r.rets[k] != v {
				out.wrong("%s iteration %d returned %d, interpreter %d", s.p.name, k, v, r.rets[k])
			}
		}
		if !equalInts(s.vm.Env.Output, r.output) {
			out.wrong("%s printed %d values, differing from the interpreter's %d", s.p.name, len(s.vm.Env.Output), len(r.output))
		}
		pea, ea, in := windowPEA[i], r.ea, r.window
		if !(pea <= ea && ea <= in) {
			out.wrong("%s guest allocations over %d rounds: PEA %d, EA %d, interpreter %d (want PEA <= EA <= interpreter)",
				s.p.name, allocWindow, pea, ea, in)
		}
		if w := s.p.spec; w != nil {
			removable := w.TempPct > 0 || w.PartialPct > 0 || w.SyncTempPct > 0
			if removable && pea >= in {
				out.wrong("%s: PEA allocates %d, not below the interpreter's %d", s.p.name, pea, in)
			}
			if !removable && pea != in {
				out.wrong("%s: PEA allocates %d, the interpreter %d, with nothing removable", s.p.name, pea, in)
			}
			if w.PartialPct > 0 && pea >= ea {
				out.wrong("%s: PEA allocates %d, not below flow-insensitive EA's %d", s.p.name, pea, ea)
			}
		}
	}
	if interpIters > 0 {
		out.layer["interp.us_per_iter"] = interpDur.Seconds() * 1e6 / float64(interpIters)
	}
}

// reference runs iters iterations of p on a fresh VM — interpreter-only when
// interpret is set, otherwise compiled with flow-insensitive EA — and
// returns the return values, the printed output, the guest allocations of
// the iterations [steadyWarmup, steadyWarmup+allocWindow), and the time
// spent in the iterations.
func reference(p program, seed uint64, iters int, interpret bool) (rets, output []int64, window int64, dur time.Duration, err error) {
	opts := steadyOptions(vm.EAFlowInsensitive, seed)
	opts.Interpret = interpret
	s, err := newSubjectVM(p, opts)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	s.rets = make([]int64, 0, iters)
	var from int64
	for k := 0; k < iters; k++ {
		if k == steadyWarmup {
			from = s.vm.Env.Stats.Allocations
		}
		if k == steadyWarmup+allocWindow {
			window = s.vm.Env.Stats.Allocations - from
		}
		t0 := time.Now()
		err := s.call()
		dur += time.Since(t0)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("iteration %d: %w", k, err)
		}
	}
	if iters == steadyWarmup+allocWindow {
		window = s.vm.Env.Stats.Allocations - from
	}
	return s.rets, s.vm.Env.Output, window, dur, nil
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
