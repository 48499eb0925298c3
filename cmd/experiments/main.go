// Command experiments regenerates every table and figure in the paper's
// evaluation section.
//
//	experiments -fig all                 # everything, interactive scale
//	experiments -fig 7a -scale 0.2       # one panel, bigger trace
//	experiments -fig 7 -heavy            # Figure 7 under the heavy workload
//	experiments -fig 7b -csv out.csv     # machine-readable series
//	experiments -fig all -full           # the full paper-size day (slow)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/experiment"
	"repro/internal/flagcheck"
	"repro/internal/opsserver"
	"repro/internal/reliability"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// logg is the command-wide leveled logger (level set from -quiet/-v).
var logg = telemetry.NewLogger("experiments", nil, telemetry.LogInfo)

// driver holds what every sweep condition shares: the run store, the ops
// server, and the execution options the flags set.
type driver struct {
	store  *runstore.Store
	srv    *opsserver.Server
	opts   experiment.SweepOptions
	resume bool
	// failed counts the sweep cells that failed after every attempt.
	failed int
}

// sweepKind binds the experiment calls of one sweep type, so array and
// fleet sweep conditions run and record through one path.
type sweepKind[C, R any] struct {
	opts     func(*C) *experiment.SweepOptions
	keys     func(C) []string
	id       func(string, C) (string, error)
	run      func(C) (*R, error)
	manifest func(string, C, *R) (*runstore.Manifest, error)
	cells    func(*R) []recordCell
}

// recordCell is one finished cell as recording sees it.
type recordCell struct {
	key    string
	failed bool
	sim    float64 // virtual seconds simulated
	events uint64
	log    *telemetry.DecisionLog
}

var arraySweep = sweepKind[experiment.SweepConfig, experiment.SweepResult]{
	opts:     func(c *experiment.SweepConfig) *experiment.SweepOptions { return &c.SweepOptions },
	keys:     experiment.SweepConfig.CellKeys,
	id:       experiment.SweepManifestID,
	run:      experiment.RunSweep,
	manifest: experiment.SweepManifest,
	cells: func(r *experiment.SweepResult) []recordCell {
		out := make([]recordCell, len(r.Cells))
		for i, c := range r.Cells {
			out[i] = recordCell{key: c.Key(), failed: c.Status == experiment.CellFailed, log: c.Decisions}
			if c.Result != nil {
				out[i].sim, out[i].events = c.Result.Duration, c.Result.EventsFired
			}
		}
		return out
	},
}

var fleetSweep = sweepKind[experiment.FleetSweepConfig, experiment.FleetSweepResult]{
	opts:     func(c *experiment.FleetSweepConfig) *experiment.SweepOptions { return &c.SweepOptions },
	keys:     experiment.FleetSweepConfig.CellKeys,
	id:       experiment.FleetManifestID,
	run:      experiment.RunFleetSweep,
	manifest: experiment.FleetManifest,
	cells: func(r *experiment.FleetSweepResult) []recordCell {
		out := make([]recordCell, len(r.Cells))
		for i, c := range r.Cells {
			out[i] = recordCell{key: c.Key(), failed: c.Status == experiment.CellFailed, log: c.Decisions}
			if c.Result != nil {
				out[i].sim, out[i].events = c.Result.Duration, c.Result.EventsFired
			}
		}
		return out
	},
}

// runCondition runs one sweep condition and records it. Under -resume it
// skips — returning nil — a condition the store already holds with the same
// name and config digest and a status other than failed. Otherwise it
// applies the execution flags, attaches a fresh ops-plane tracker, runs the
// sweep, and writes the manifest and each traced cell's decision log into
// the run store. It returns the result and the condition's wall time.
func runCondition[C, R any](d *driver, k sweepKind[C, R], name string, cfg C) (*R, time.Duration) {
	if d.resume {
		if id, err := k.id(name, cfg); err == nil {
			m, err := runstore.ReadManifest(filepath.Join(d.store.Root(), id))
			if err == nil && m.Status != string(experiment.CellFailed) {
				logg.Infof("resume: skipping %s (already recorded as %s)", name, id)
				return nil, 0
			}
		}
	}
	opts := k.opts(&cfg)
	*opts = d.opts
	if d.srv != nil {
		par := opts.Parallelism
		if par <= 0 {
			par = runtime.NumCPU()
		}
		opts.Track = telemetry.NewSweepTracker(k.keys(cfg), par)
		d.srv.SetSweep(opts.Track)
		d.srv.SetRun(name, nil, nil)
	}
	start := time.Now()
	pc := runstore.StartPerf()
	res, err := k.run(cfg)
	if res == nil {
		logg.Fatal(err)
	}
	cells := k.cells(res)
	if err != nil {
		logg.Errorf("sweep %s: %v", name, err)
		for _, c := range cells {
			if c.failed {
				d.failed++
			}
		}
	}
	if d.store == nil {
		return res, time.Since(start)
	}
	m, err := k.manifest(name, cfg, res)
	if err != nil {
		logg.Fatal(err)
	}
	m.CreatedAt = start.UTC().Format(time.RFC3339)
	m.WallSeconds = time.Since(start).Seconds()
	// The sweep-level perf sample aggregates every cell: total virtual time
	// and events over the sweep's wall-clock and runtime deltas.
	var simSeconds float64
	var events uint64
	for _, c := range cells {
		simSeconds += c.sim
		events += c.events
	}
	run := pc.Sample(simSeconds, events, false)
	if m.Perf == nil {
		m.Perf = &runstore.Perf{}
	}
	m.Perf.Run = &run
	dir, err := d.store.Write(m)
	if err != nil {
		logg.Fatal(err)
	}
	// Each traced cell's log lands next to the manifest as
	// decisions-<key with dots as dashes>.ndjson, e.g.
	// decisions-read-raid5-6.ndjson or decisions-fleet-read-round-robin-2.ndjson.
	for _, c := range cells {
		if c.log == nil {
			continue
		}
		f, err := atomicio.Create(filepath.Join(dir, "decisions-"+strings.ReplaceAll(c.key, ".", "-")+".ndjson"))
		if err != nil {
			logg.Fatal(err)
		}
		if err := c.log.WriteNDJSON(f); err != nil {
			f.Close()
			logg.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logg.Fatal(err)
		}
	}
	logg.Infof("run %s recorded in %s", name, dir)
	return res, time.Since(start)
}

// validFigures is the closed set -fig accepts; "all" runs everything except
// the fleet sweep, which multiplies the workload by the fleet size and is
// requested explicitly.
var validFigures = []string{
	"2b", "3b", "4a", "4b", "5", "derive", "7", "7a", "7b", "7c",
	"faults", "raidloss", "fleet", "ablations", "calibration", "all",
}

func main() {
	os.Exit(run())
}

// run is main's body; it returns the process exit code — the number of sweep
// cells that ultimately failed (capped at 125), zero on full success — so
// deferred profile writers still flush on the failure path.
func run() int {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: "+strings.Join(validFigures, " | "))
		scale    = flag.Float64("scale", 0.05, "trace scale for Figure 7 sweeps (1 = full day)")
		full     = flag.Bool("full", false, "shorthand for -scale 1 (the full 1.48M-request day)")
		heavy    = flag.Bool("heavy", false, "run every sweep under the heavy workload condition")
		both     = flag.Bool("both", false, "run Figure 7 under both workload conditions")
		csvPath  = flag.String("csv", "", "also write machine-readable output to this file")
		steps    = flag.Int("steps", 13, "samples per axis for the function figures")
		runsDir  = flag.String("runs-dir", "", "record one manifest per sweep condition in this run store")
		traceDec = flag.Bool("trace-decisions", false, "trace every policy decision: attribution rollups land in the sweep manifests and per-cell decisions-*.ndjson logs in the run directories (requires -runs-dir)")
		resume   = flag.Bool("resume", false, "skip sweep conditions already recorded with an ok status in -runs-dir")
		retries  = flag.Int("retries", 0, "extra attempts per failed sweep cell (exponential backoff between attempts)")
		workers  = flag.Int("workers", 0, "sweep worker-pool size; 0 means one worker per CPU. Results are bit-identical for every value — -workers=1 is the sequential reference the CI identity gate diffs against")
		version  = flag.Bool("version", false, "print build information and exit")

		progress     = flag.Bool("progress", false, "log sweep phases and per-cell progress to stderr")
		opsAddr      = flag.String("ops-addr", "", "serve the live ops plane (/metrics, /progress, /healthz) on this address, e.g. 127.0.0.1:9100, while the sweeps run")
		verbose      = flag.Bool("v", false, "verbose logging (include debug lines)")
		quiet        = flag.Bool("quiet", false, "log errors only")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file")
		runtimeTrace = flag.String("runtime-trace", "", "write a Go runtime execution trace to this file")
	)
	flag.Parse()
	logg = telemetry.NewLogger("experiments", nil, telemetry.LevelFromFlags(*quiet, *verbose))

	if *version {
		fmt.Println(runstore.VersionLine("experiments"))
		return 0
	}
	if err := flagcheck.Choice("fig", *fig, validFigures...); err != nil {
		logg.Fatal(err)
	}

	if *full {
		*scale = 1
	}
	if *retries < 0 {
		logg.Fatal("-retries must be >= 0")
	}

	var store *runstore.Store
	if *runsDir != "" {
		var err error
		store, err = runstore.Open(*runsDir)
		if err != nil {
			logg.Fatal(err)
		}
	}
	if *resume && store == nil {
		logg.Fatal("-resume requires -runs-dir (resume skips conditions by their recorded manifests)")
	}
	if *traceDec && store == nil {
		logg.Fatal("-trace-decisions requires -runs-dir (decision logs are recorded next to the sweep manifests)")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile) //simlint:allow atomicwrite -- pprof streams into a live file; a torn profile from a crashed run is acceptable debug output
		if err != nil {
			logg.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logg.Fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}
	if *runtimeTrace != "" {
		f, err := os.Create(*runtimeTrace) //simlint:allow atomicwrite -- runtime/trace streams into a live file; a torn trace from a crashed run is acceptable debug output
		if err != nil {
			logg.Fatal(err)
		}
		if err := rtrace.Start(f); err != nil {
			logg.Fatal(err)
		}
		defer func() { rtrace.Stop(); f.Close() }()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := atomicio.Create(*memprofile)
		if err != nil {
			logg.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Abort()
			logg.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logg.Fatal(err)
		}
	}()

	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(logg, 2*time.Second)
	}

	// One ops server for the whole invocation: each sweep condition installs
	// its tracker via SetSweep, so /progress and /metrics follow whichever
	// sweep is currently running. Observation-only — results are
	// bit-identical with or without -ops-addr.
	var srv *opsserver.Server
	if *opsAddr != "" {
		var err error
		srv, err = opsserver.Start(opsserver.Options{
			Addr: *opsAddr,
			Tool: "experiments",
			Log:  logg,
		})
		if err != nil {
			logg.Fatal(err)
		}
		defer srv.Close()
	}
	d := &driver{
		store:  store,
		srv:    srv,
		opts:   experiment.SweepOptions{Parallelism: *workers, CellAttempts: 1 + *retries, Progress: prog, TraceDecisions: *traceDec},
		resume: *resume,
	}
	// -heavy picks the workload condition every sweep runs under; -both
	// runs Figure 7 under both.
	intensity := map[string]float64{"light": experiment.LightIntensity, "heavy": experiment.HeavyIntensity}
	cond := "light"
	if *heavy {
		cond = "heavy"
	}

	var csvW io.Writer
	if *csvPath != "" {
		// Atomic commit: the CSV appears under its final name only when the
		// sweep finishes, so a crashed run never leaves a torn artifact.
		f, err := atomicio.Create(*csvPath)
		if err != nil {
			logg.Fatal(err)
		}
		defer f.Close()
		csvW = f
	}

	model := reliability.NewModel()
	want := func(names ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, n := range names {
			if *fig == n {
				return true
			}
		}
		return false
	}

	// The reliability-function figures; csvX names the CSV x column of the
	// figures that have a machine-readable form.
	for _, f := range []struct {
		id, xLabel, csvX, title string
		sample                  func(*reliability.Model, int) ([]experiment.FunctionPoint, error)
	}{
		{"2b", "temp_C", "temp_c", "Figure 2b — temperature-reliability function (3-year-old drives)", experiment.Fig2bTemperatureFunction},
		{"3b", "util", "utilization", "Figure 3b — utilization-reliability function (4-year-old drives)", experiment.Fig3bUtilizationFunction},
		{"4a", "startstops/day", "", "Figure 4a — IDEMA spindle start/stop failure-rate adder", experiment.Fig4aIDEMAAdder},
		{"4b", "transitions/day", "transitions_per_day", "Figure 4b — frequency-reliability function (Eq. 3, ½ × Figure 4a)", experiment.Fig4bFrequencyFunction},
	} {
		if !want(f.id) {
			continue
		}
		pts, err := f.sample(model, *steps)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderFunctionTable(os.Stdout, pts, f.xLabel, f.title)
		fmt.Println()
		if csvW != nil && f.csvX != "" {
			if err := experiment.WriteFunctionCSV(csvW, pts, f.csvX); err != nil {
				logg.Fatal(err)
			}
		}
	}
	if want("5") {
		at40, at50, err := experiment.Fig5Surfaces(model, 7, 9)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderSurfaceTable(os.Stdout, at40, "Figure 5a — PRESS surface at 40 °C (AFR%)")
		fmt.Println()
		experiment.RenderSurfaceTable(os.Stdout, at50, "Figure 5b — PRESS surface at 50 °C (AFR%)")
		fmt.Println()
	}
	if want("derive") {
		fmt.Println("§3.4 — modified Coffin-Manson derivation")
		experiment.RenderDerivation(os.Stdout, experiment.DerivationConstants())
		fmt.Println()
	}

	if want("7", "7a", "7b", "7c") {
		conds := []string{cond}
		if *both {
			conds = []string{"light", "heavy"}
		}
		for _, c := range conds {
			cfg := experiment.DefaultSweepConfig()
			cfg.Scale = *scale
			cfg.Intensity = intensity[c]
			res, took := runCondition(d, arraySweep, "fig7-"+c, cfg)
			if res == nil {
				continue
			}
			fmt.Printf("Figure 7 — %s workload (scale %.3g, %s)\n\n",
				c, *scale, took.Round(time.Millisecond))
			panels := []struct {
				id     string
				metric experiment.Metric
				title  string
			}{
				{"7a", experiment.MetricAFR, "Figure 7a — reliability (array AFR)"},
				{"7b", experiment.MetricEnergy, "Figure 7b — energy consumption"},
				{"7c", experiment.MetricResponse, "Figure 7c — mean response time"},
			}
			for _, p := range panels {
				if *fig != "all" && *fig != "7" && *fig != p.id {
					continue
				}
				if err := experiment.RenderSweepTable(os.Stdout, res, p.metric, p.title); err != nil {
					logg.Fatal(err)
				}
				if err := experiment.RenderImprovements(os.Stdout, res, p.metric, experiment.KindREAD); err != nil {
					logg.Fatal(err)
				}
				fmt.Println()
			}
			if csvW != nil {
				fmt.Fprintf(csvW, "# figure 7, %s workload\n", c)
				if err := experiment.WriteSweepCSV(csvW, res); err != nil {
					logg.Fatal(err)
				}
			}
		}
	}

	// The observed-reliability sweeps: the Figure 7 comparison with faults
	// injected, then with RAID organizations crossed in.
	for _, f := range []struct {
		fig, csvName, header, title string
		cfg                         experiment.SweepConfig
		accel                       float64
		render                      func(io.Writer, *experiment.SweepResult, string)
	}{
		{"faults", "fault", "Fault sweep — energy vs observed data loss",
			"Observed reliability — Weibull failures under live PRESS hazard scaling",
			experiment.DefaultFaultSweepConfig(), experiment.FaultSweepAcceleration, experiment.RenderFaultSummary},
		{"raidloss", "raidloss", "RAID-loss sweep — MTTDL per RAID organization × energy policy",
			"Data-loss combinations — latent sector errors, scrubbing, Weibull rebuilds",
			experiment.DefaultRAIDLossSweepConfig(), experiment.RAIDLossAcceleration, experiment.RenderRAIDLoss},
	} {
		if !want(f.fig) {
			continue
		}
		cfg := f.cfg
		cfg.Scale = *scale
		cfg.Intensity = intensity[cond]
		res, took := runCondition(d, arraySweep, f.fig+"-"+cond, cfg)
		if res == nil {
			continue
		}
		fmt.Printf("%s (scale %.3g, accel %.0g, %d spare(s), %s)\n\n",
			f.header, *scale, f.accel, cfg.Spares, took.Round(time.Millisecond))
		f.render(os.Stdout, res, f.title)
		fmt.Println()
		if csvW != nil {
			fmt.Fprintf(csvW, "# %s sweep\n", f.csvName)
			if err := experiment.WriteSweepCSV(csvW, res); err != nil {
				logg.Fatal(err)
			}
		}
	}

	if want("calibration") {
		pts, err := experiment.IntensityScan(experiment.AblationConfig{Scale: *scale}, nil, nil)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderIntensityScan(os.Stdout, pts,
			"Calibration — metrics vs arrival intensity (10 disks)")
		fmt.Println()
	}

	if want("ablations") {
		acfg := experiment.AblationConfig{Scale: *scale}
		if *heavy {
			acfg.Intensity = experiment.HeavyIntensity
		}
		caps, err := experiment.TransitionCapAblation(acfg, nil)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderVariants(os.Stdout, caps,
			"Ablation — READ transition cap S (the 65/day question)")
		fmt.Println()
		design, err := experiment.READDesignAblation(acfg)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderVariants(os.Stdout, design, "Ablation — READ design elements")
		fmt.Println()
		panel, err := experiment.BaselinePanelAblation(acfg)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderVariants(os.Stdout, panel, "Panel — every policy, one workload")
		fmt.Println()
	}

	// The fleet sweep runs only when asked for by name: every cell simulates
	// a whole fleet on one engine, so "all" deliberately excludes it.
	if *fig == "fleet" {
		cfg := experiment.DefaultFleetSweepConfig()
		cfg.Scale = *scale
		cfg.Intensity = intensity[cond]
		if res, took := runCondition(d, fleetSweep, "fleet-"+cond, cfg); res != nil {
			fmt.Printf("Fleet sweep — routing × policy over fleet sizes (scale %.3g, replicas %d, %s)\n\n",
				*scale, cfg.Replicas, took.Round(time.Millisecond))
			experiment.RenderFleetSummary(os.Stdout, res,
				"Fleet resilience — deadlines, retries, hedging, failover")
			fmt.Println()
			if csvW != nil {
				fmt.Fprintf(csvW, "# fleet sweep\n")
				if err := experiment.WriteFleetCSV(csvW, res); err != nil {
					logg.Fatal(err)
				}
			}
		}
	}

	if srv != nil {
		srv.MarkDone()
	}
	if d.failed > 0 {
		logg.Errorf("%d sweep cell(s) failed after all retries", d.failed)
		return min(d.failed, 125)
	}
	return 0
}
