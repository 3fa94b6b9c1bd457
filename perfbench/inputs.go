package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"pea/internal/bench"
	"pea/internal/rt"
)

// program is one benchmark subject: a MiniJava source and the method each
// operation of table1-steady calls.
type program struct {
	name string
	// spec is the Table-1 workload the source was generated from; nil for
	// the example programs.
	spec *bench.WorkloadSpec
	src  string
	// init ("Class.method", or "") runs once after linking.
	init string
	// iter ("Class.method") is the iteration method; args its arguments.
	iter string
	args []rt.Value
}

// smokePrograms names the subset the smoke size runs: a partial-escape
// heavy row, a polymorphic row, a lock row, and the three examples.
var smokePrograms = map[string]bool{
	"factorie": true, "avrora": true, "tomcat": true,
	"callheavy": true, "trycatch": true, "pairloop": true,
}

// examples are the example programs table1-steady runs next to the
// Table-1 rows, with the method an operation calls and the range its
// argument is drawn from ([lo, lo+span); span 0 = no argument). The
// ranges are narrow so that no seed changes the amount of work much.
var examples = []struct {
	name, iter string
	lo, span   int64
}{
	{"callheavy", "Main.run", 1900, 200},
	{"trycatch", "Main.main", 0, 0},
	{"pairloop", "Main.hot", 4800, 400},
}

// subjects returns the 27 Table-1 programs and the three example programs,
// with the examples' loop bounds drawn from seed.
func subjects(c *config) ([]program, error) {
	rng := rand.New(rand.NewSource(c.seed))
	var out []program
	for _, w := range bench.Suites() {
		out = append(out, program{
			name: w.Name, spec: &w, src: w.Source(),
			init: "Store.setup", iter: "Bench.iteration",
		})
	}
	for _, e := range examples {
		b, err := os.ReadFile(filepath.Join(c.root, "examples", e.name+".mj"))
		if err != nil {
			return nil, err
		}
		p := program{name: e.name, src: string(b), iter: e.iter}
		if e.span > 0 {
			p.args = []rt.Value{rt.IntValue(e.lo + rng.Int63n(e.span))}
		}
		out = append(out, p)
	}
	if c.smoke {
		var small []program
		for _, p := range out {
			if smokePrograms[p.name] {
				small = append(small, p)
			}
		}
		out = small
	}
	return out, nil
}

// vmSeed is the guest PRNG seed of subject i under the run's seed.
func vmSeed(seed int64, i int) uint64 {
	return uint64(seed)*1_000_003 + uint64(i) + 1
}

// variant returns the idx-th program serve-mixed serves under seed: the
// Table-1 source idx selects (cycling through the rows), with an operation
// count and a work-loop count that idx also fixes, so every seed serves
// programs of the same sizes, and a class named after seed and idx
// appended, so every variant has its own content fingerprint and misses
// every cache tier until it is served.
func variant(seed int64, idx int) string {
	specs := bench.Suites()
	w := specs[idx%len(specs)]
	w.Ops = 50 + idx%8
	w.WorkLoops = 2 + idx%3
	return w.Source() + fmt.Sprintf("class Variant%d_%d { int v; }\n", seed, idx)
}
