package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"pea/internal/broker"
	"pea/internal/mj"
	"pea/internal/serve"
	"pea/internal/vm"
)

// serve-mixed's shape.
const (
	warmPool  = 8 // programs in the warm class
	serveRuns = 3 // Main.main runs per request
	// storeMaxBytes bounds the store directory; it holds several rounds
	// of artifacts, so a program persisted for the next round is never
	// expelled before that round reads it.
	storeMaxBytes = 4 << 20
	serveClients  = 2
	heapEvery     = 8
	// memoPrograms is the server's program memo bound (its default).
	memoPrograms = 128
	// cacheEntries bounds the memory cache well above the warm pool's
	// artifacts, low enough that the stream of new programs fills it
	// within the first rounds: the server's heap then stops growing with
	// the length of the run.
	cacheEntries = 256
)

// request kinds.
const (
	kindWarm = iota
	kindDisk
	kindFresh
)

var kindNames = [...]string{"warm", "disk", "fresh"}

// roundPattern is one round: 14/3/3 of 20 is the 70/15/15 warm/disk/fresh
// mix. The order is fixed and spaces the fresh requests apart, so the two
// clients do not compile two fresh programs at the same time and every
// seed issues the same sequence of kinds; the seed picks the warm program
// of each warm request.
var roundPattern = [...]int{
	kindWarm, kindFresh, kindWarm, kindWarm, kindDisk,
	kindWarm, kindWarm, kindFresh, kindWarm, kindWarm,
	kindDisk, kindWarm, kindWarm, kindFresh, kindWarm,
	kindWarm, kindDisk, kindWarm, kindWarm, kindWarm,
}

// source is one distinct program the workload serves: variant(seed, idx).
type source struct {
	idx  int
	body []byte // the POST /run payload
}

func newSource(seed int64, idx int) *source {
	// A struct of a string and an int always marshals.
	b, _ := json.Marshal(serve.RunRequest{Source: variant(seed, idx), Runs: serveRuns})
	return &source{idx: idx, body: b}
}

// served is one completed request as the client saw it.
type served struct {
	kind int
	// idx names the program; the record keeps no source text, so what
	// the run retains does not grow with it by more than a few bytes per
	// request.
	idx    int
	status int
	resp   serve.RunResponse
	cpu    int64 // client goroutine's CPU time for the request
	wall   int64 // client-side wall-clock latency
	err    string
}

func serveOptions(dir string) serve.Options {
	return serve.Options{
		EA:            vm.EAPartial,
		Backend:       vm.BackendClosure,
		Summaries:     true,
		Workers:       0,
		StoreDir:      dir,
		StoreMaxBytes: storeMaxBytes,
		CacheEntries:  cacheEntries,
		MaxPrograms:   memoPrograms,
	}
}

// post sends one request through the server's http.Handler.
func post(h http.Handler, s *source) (int, serve.RunResponse, string) {
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(s.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp serve.RunResponse
	if rec.Code != http.StatusOK {
		return rec.Code, resp, rec.Body.String()
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return rec.Code, resp, err.Error()
	}
	return rec.Code, resp, ""
}

// serveState is serve-mixed's set-up product.
type serveState struct {
	dir      string
	srv      *serve.Server // the measured instance
	prefill  *serve.Server // the earlier instance that persists disk programs
	warm     []*source
	seed     int64
	rng      *rand.Rand
	variants int
	// next is the round planned (and its disk programs persisted) ahead.
	next round
}

// round is one round's requests.
type round struct {
	kinds []int
	srcs  []*source
}

// nextVariant returns a program no server instance has seen yet.
func (st *serveState) nextVariant() *source {
	st.variants++
	return newSource(st.seed, st.variants)
}

func (st *serveState) close() {
	st.srv.Close()
	st.prefill.Close()
}

// serveSetup creates a fresh store, brings the measured instance to the
// steady state this traffic keeps it in, and has a second instance persist
// the disk programs of the first round.
//
// The server's program memo empties whenever it fills. A program linked
// again after that is a different link from the one its cached artifacts
// were compiled against, so from then on every warm request rebinds them.
// Under this traffic the memo first empties after about 21 rounds; so that
// the timed phase does not depend on how much of it falls before that,
// set-up serves the warm pool, then one-line programs until the memo has
// emptied once, then the warm pool again.
func serveSetup(c *config, k int) (*serveState, error) {
	st := &serveState{
		dir:  filepath.Join(c.work, fmt.Sprintf("store-%d", k)),
		seed: c.seed,
		rng:  rand.New(rand.NewSource(c.seed)),
	}
	if err := os.RemoveAll(st.dir); err != nil {
		return nil, err
	}
	var err error
	if st.prefill, err = serve.New(serveOptions(st.dir)); err != nil {
		return nil, err
	}
	if st.srv, err = serve.New(serveOptions(st.dir)); err != nil {
		st.prefill.Close()
		return nil, err
	}
	for i := 0; i < warmPool; i++ {
		s := st.nextVariant()
		if code, _, msg := post(st.srv, s); code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("warming the server: %d %s", code, msg)
		}
		st.warm = append(st.warm, s)
	}
	for i := 0; i < memoPrograms; i++ {
		filler := fmt.Sprintf(`{"source": "class Main { static void main() { print(%d); } }", "runs": 1}`, i)
		if code, _, msg := post(st.srv, &source{body: []byte(filler)}); code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("filling the program memo: %d %s", code, msg)
		}
	}
	for _, s := range st.warm {
		if code, _, msg := post(st.srv, s); code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("warming the server: %d %s", code, msg)
		}
	}
	if st.next, err = st.plan(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// plan draws one round and has the second instance persist its disk
// programs.
func (st *serveState) plan() (round, error) {
	r := round{kinds: roundPattern[:], srcs: make([]*source, len(roundPattern))}
	for i, k := range roundPattern {
		switch k {
		case kindWarm:
			r.srcs[i] = st.warm[st.rng.Intn(len(st.warm))]
		case kindDisk:
			s := st.nextVariant()
			if code, _, msg := post(st.prefill, s); code != http.StatusOK {
				return round{}, fmt.Errorf("persisting a disk program: %d %s", code, msg)
			}
			r.srcs[i] = s
		case kindFresh:
			r.srcs[i] = st.nextVariant()
		}
	}
	return r, nil
}

// runRound has serveClients closed-loop clients drain one round's
// requests, each sending its next request when the previous one returned.
func runRound(h http.Handler, r round, tr []*tracer) []served {
	kinds, srcs := r.kinds, r.srcs
	res := make([]served, len(kinds))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func(t *tracer) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(kinds) {
					return
				}
				t.nextOp()
				sp := t.begin("serve." + kindNames[kinds[i]])
				w0, c0 := time.Now(), threadCPU()
				code, resp, msg := post(h, srcs[i])
				cpu, wall := threadCPU()-c0, time.Since(w0)
				t.end(sp)
				res[i] = served{kind: kinds[i], idx: srcs[i].idx, status: code, resp: resp,
					cpu: int64(cpu), wall: int64(wall), err: msg}
			}
		}(tr[cl])
	}
	wg.Wait()
	return res
}

// serveTotals are the counters read around a timed phase.
type serveTotals struct {
	broker  broker.Stats
	store   broker.StoreStats
	sumHits int64
}

func readTotals(s *serve.Server) serveTotals {
	h, _ := s.Broker().SummaryCache().Stats()
	return serveTotals{s.Broker().Stats(), s.Broker().Store().Stats(), h}
}

// servePhase runs whole rounds until dur of wall-clock time has passed in
// them. Planning the next round, which persists its disk programs, is
// neither timed nor counted in the Go heap figures; heap returns what to
// take out of them. In a traced run, odd rounds are traced (see split).
//
// Every heapEvery rounds it also forces a collection and samples the heap
// in use: the server's program memo empties whenever it fills, every 21
// rounds or so, so the heap at any one moment depends on where in that
// cycle the run stopped; the median of the samples does not.
func servePhase(c *config, st *serveState, dur time.Duration, tr []*tracer, sp *split) (all []served, heap memSample, live []float64, err error) {
	none := make([]*tracer, len(tr))
	var timed time.Duration
	for i := 0; i < c.minRounds() || timed < dur; i++ {
		rtr := none
		if sp.tracer(tr[0], i) != nil {
			rtr = tr
		}
		r := st.next
		w0, c0 := time.Now(), processCPU()
		res := runRound(st.srv, r, rtr)
		cpu, wall := processCPU()-c0, time.Since(w0)
		var k float64
		heap.exclude(func() {
			k = c.host.scale()
			st.next, err = st.plan()
			if i%heapEvery == heapEvery-1 {
				live = append(live, heapInUse())
			}
		})
		if err != nil {
			return nil, heap, nil, err
		}
		for j := range res {
			res[j].cpu = int64(float64(res[j].cpu) * k)
		}
		all = append(all, res...)
		sp.add(rtr[0], int64(len(r.kinds)), time.Duration(float64(cpu)*k))
		timed += wall
	}
	if len(live) == 0 {
		live = append(live, heapInUse())
	}
	return all, heap, live, nil
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(c *config) (*outcome, error) {
	out := newOutcome()
	k := 0
	setupS, st, err := setupTimes(setupRuns, func() (*serveState, error) {
		k++
		return serveSetup(c, k)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.e2e["setup_s"] = setupS
	dur := c.seconds
	if c.smoke {
		dur = 0
	}

	tr := make([]*tracer, serveClients)
	if c.trace {
		for i := range tr {
			tr[i] = newTracer()
		}
	}
	var sp split
	t0 := readTotals(st.srv)
	m0 := readMem()
	all, skip, live, err := servePhase(c, st, dur, tr, &sp)
	if err != nil {
		return nil, err
	}
	m1 := readMem().minus(skip)
	t1 := readTotals(st.srv)
	n, cpu := sp.total()
	out.attempted = n
	out.e2e["ops_per_s"] = float64(n) / cpu.Seconds()
	ns := make([]int64, len(all))
	for i, r := range all {
		ns[i] = r.cpu
	}
	latencies(out.e2e, ns)
	goAllocs(out, m0, m1, n)
	serveLayers(all, t0, t1, out)

	if c.trace {
		sp.report(out)
		for i, t := range tr {
			if err := t.write(c.traceDir(), fmt.Sprintf("serve-mixed-seed%d-client%d.json", c.seed, i)); err != nil {
				return nil, err
			}
		}
		var srcs []string
		for _, s := range st.warm {
			srcs = append(srcs, variant(c.seed, s.idx))
		}
		if err := frontLayers(newTracer(), srcs, out); err != nil {
			return nil, err
		}
	}

	out.e2e["live_heap_mb"] = median(live)
	checkServe(c.seed, all, out)
	return out, nil
}

// serveLayers derives the serve, broker and store metrics of a timed
// phase; counts are per request.
func serveLayers(all []served, t0, t1 serveTotals, out *outcome) {
	n := float64(len(all))
	byKind := make([][]int64, len(kindNames))
	var front, exec int64
	for _, r := range all {
		byKind[r.kind] = append(byKind[r.kind], r.cpu)
		front += r.wall - r.resp.WallNS
		exec += r.resp.WallNS
	}
	for k, xs := range byKind {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		out.layer["serve."+kindNames[k]+".latency_p50_us"] = percentileUS(xs, 0.5)
	}
	out.layer["serve.front_us"] = float64(front) / n / 1e3
	out.layer["serve.exec_us"] = float64(exec) / n / 1e3
	b0, b1 := t0.broker, t1.broker
	out.layer["broker.busy_ms"] = float64(b1.BusyNS-b0.BusyNS) / n / 1e6
	out.layer["broker.pipeline_compiles"] = float64(b1.Compiled-b0.Compiled) / n
	out.layer["broker.cache_hits"] = float64(b1.CacheHits-b0.CacheHits) / n
	out.layer["broker.disk_hits"] = float64(b1.DiskHits-b0.DiskHits) / n
	out.layer["broker.dedup"] = float64(b1.Dedup-b0.Dedup) / n
	if lookups := (b1.CacheHits - b0.CacheHits) + (b1.CacheMisses - b0.CacheMisses); lookups > 0 {
		out.layer["broker.hit_rate"] = float64((b1.CacheHits-b0.CacheHits)+(b1.DiskHits-b0.DiskHits)) / float64(lookups)
	}
	s0, s1 := t0.store, t1.store
	out.layer["store.writes"] = float64(s1.Writes-s0.Writes) / n
	out.layer["store.hits"] = float64(s1.Hits-s0.Hits) / n
	out.layer["store.rejected"] = float64(s1.Rejected-s0.Rejected) / n
	out.layer["store.expelled"] = float64(s1.Expelled-s0.Expelled) / n
	out.layer["store.summary_hits"] = float64(s1.SummaryHits-s0.SummaryHits) / n
	out.layer["summary.cache_hits"] = float64(t1.sumHits-t0.sumHits) / n
}

// checkServe checks every response: a 200 without failed compiles whose
// output equals an interpreter-only run of the same source. The references
// run on two goroutines, one per distinct source.
func checkServe(seed int64, all []served, out *outcome) {
	var distinct []int
	seen := map[int]int{}
	for _, r := range all {
		if _, ok := seen[r.idx]; !ok {
			seen[r.idx] = len(distinct)
			distinct = append(distinct, r.idx)
		}
	}
	type ref struct {
		output []int64
		err    error
		dur    time.Duration
	}
	refs := make([]ref, len(distinct))
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(distinct) {
					return
				}
				r := &refs[i]
				p, err := mj.Compile(variant(seed, distinct[i]), "Main.main")
				if err != nil {
					r.err = err
					continue
				}
				machine := vm.New(p, vm.Options{Interpret: true})
				t0 := time.Now()
				for k := 0; k < serveRuns && r.err == nil; k++ {
					_, r.err = machine.Run()
				}
				r.dur = time.Since(t0)
				r.output = machine.Env.Output
			}
		}()
	}
	wg.Wait()
	var interp time.Duration
	for _, r := range refs {
		interp += r.dur
	}
	out.layer["interp.us_per_iter"] = interp.Seconds() * 1e6 / float64(len(refs)*serveRuns)
	for _, r := range all {
		ref := refs[seen[r.idx]]
		switch {
		case r.status != http.StatusOK:
			out.fail("%s request: status %d: %s", kindNames[r.kind], r.status, r.err)
		case r.resp.FailedCompiles != 0:
			out.fail("%s request: %d failed compiles", kindNames[r.kind], r.resp.FailedCompiles)
		case ref.err != nil:
			out.fail("%s request: interpreter reference: %v", kindNames[r.kind], ref.err)
		case !equalInts(r.resp.Output, ref.output):
			out.wrong("%s request: output %v, interpreter %v", kindNames[r.kind], r.resp.Output, ref.output)
		}
	}
}
