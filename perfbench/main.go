// Command perfbench is the repository's benchmark. It replays one seeded
// workload through the simulator again and again for a fixed host-time
// budget, checks the simulated output, and prints its metrics:
//
//	perfbench --workload fig7-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it also
// runs every simulation once more with timers around the calls into each
// layer and prints the per-layer metrics. The last line of standard
// output is one JSON object; README.md describes the workloads and every
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// instance is one set-up workload: its trace and configuration, built
// from the seed, ready to replay.
type instance interface {
	// run replays the workload once, untraced, and checks its output.
	run() (outcome, error)
	// traced replays it untraced and then with the layer timers, checks
	// that both give the same output, and adds per-layer figures to s.
	traced(s series) (outcome, error)
}

// outcome is what one replay produced.
type outcome struct {
	requests int    // simulated user requests completed
	units    int    // runs, cells and resumes attempted
	failed   int    // of those, the ones that errored or failed a check
	digest   string // digest of the simulated statistics
}

type workloadDef struct {
	name string
	// setup generates the trace and builds the configuration; it returns
	// the host seconds spent in workload.Generate alone.
	setup func(seed int64) (instance, float64, error)
}

var workloads = []workloadDef{
	{"fig7-sweep", setupFig7},
	{"fleet-16", setupFleet},
	{"faults-ckpt", setupFaultsCkpt},
}

// Set-up runs at least setupReps times and until setupBudget is spent;
// setup_s is the median.
const (
	setupReps   = 3
	setupBudget = time.Second
)

func main() {
	// One P: the workload runs on one goroutine, and with a second P the
	// garbage collector's background worker takes a second core that other
	// tenants of a shared host contend for. On one P the process keeps to
	// one core at a time, which ran faster in most paired runs, and in all
	// of those where a second process shared the cores.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig7-sweep | fleet-16 | faults-ckpt")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to spend replaying the workload")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: -seconds %g must be positive\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: -trace %d must be 0 or 1\n", *trace)
		return 2
	}
	expected, err := expectedDigests()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	host := hostStamp(*seed)
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(hostLine))

	// Set-up: generate the trace and build the configuration several
	// times; the last instance is the one replayed.
	var inst instance
	var setupS, generateS []float64
	for t0 := time.Now(); len(setupS) < setupReps || time.Since(t0) < setupBudget; {
		var gen float64
		inst = nil // let the previous instance's trace be collected first
		c, err := measure(func() (err error) {
			inst, gen, err = w.setup(*seed)
			return err
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return 1
		}
		setupS = append(setupS, c.wall)
		generateS = append(generateS, gen)
	}

	var (
		e2e        = series{}
		layers     = series{}
		attempted  int
		failed     int
		first      string
		reps       int
		wantDigest = expected[w.name]
	)
	// check compares a replay's output with the first replay's and, at the
	// default seed, with the committed digest, and counts its failures.
	check := func(o outcome, err error) {
		switch {
		case err != nil:
		case first == "":
			first = o.digest
			if *seed == defaultSeed && o.digest != wantDigest {
				err = fmt.Errorf("digest %s, committed expected.json has %q", o.digest, wantDigest)
			}
		case o.digest != first:
			err = fmt.Errorf("digest %s differs from the first replay's %s", o.digest, first)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s replay %d: %v\n", w.name, reps, err)
			if o.failed == 0 {
				o.failed = o.units
			}
		}
		attempted += o.units
		failed += o.failed
	}

	// One untimed replay first, so that the timed ones find the heap grown
	// and the caches warm; its output is checked like theirs.
	check(inst.run())

	// Replay at least once, and again while the budget is expected to
	// outlast half of one more replay.
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	for reps == 0 || time.Since(start)+time.Since(start)/time.Duration(2*reps) < budget {
		reps++
		var o outcome
		var err error
		if *trace == 1 {
			o, err = inst.traced(layers)
		} else {
			var c cost
			c, err = measure(func() (err error) {
				o, err = inst.run()
				return err
			})
			e2e.add("wall_s", c.wall)
			e2e.add("cpu_s", c.cpu)
			e2e.add("requests_per_s", ratio(float64(o.requests), c.wall))
			e2e.add("alloc_mb", float64(c.alloc)/(1<<20))
			e2e.add("mallocs_per_request", ratio(float64(c.mallocs), float64(o.requests)))
		}
		check(o, err)
	}

	var metrics []metric
	var values map[string]float64
	if *trace == 1 {
		metrics = perLayer
		values = layers.medians()
		values["workload.generate_s"] = median(generateS)
		ns, err := kernelNsPerEvent(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: des kernel: %v\n", err)
			failed++
		}
		attempted++
		values["des.ns_per_event"] = ns
	} else {
		metrics = endToEnd
		values = e2e.medians()
		values["setup_s"] = median(setupS)
		values["max_rss_mb"] = maxRSSMB()
		values["ok_frac"] = ratio(float64(attempted-failed), float64(attempted))
	}

	fmt.Fprintf(stdout, "%s seed=%d trace=%d replays=%d digest=%s\n", w.name, *seed, *trace, reps, first)
	out := make(map[string]any, len(metrics))
	for _, m := range metrics {
		v := values[m.name]
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
