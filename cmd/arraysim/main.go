// Command arraysim runs a single disk-array simulation and prints a full
// per-disk report.
//
//	arraysim -policy read -disks 12
//	arraysim -policy maid -disks 8 -requests 100000 -intensity 6
//	arraysim -policy pdc -trace day.trace
//	arraysim -policy read -faults -spares 1 -fault-accel 5e5
//	arraysim -policy read -faults -lse-rate 1.08e-4 -raid raid5 -rebuild-hours 12
//	arraysim -policy read -telemetry-dir out -trace-events -progress
//	arraysim -policy read -runs-dir runs -trace-decisions
//	arraysim -replay-decisions runs/arraysim-<digest> -override 3:skip
//	arraysim -policy read -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sort"
	"strconv"
	"strings"
	"time"

	diskarray "repro"
	"repro/internal/atomicio"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/flagcheck"
	"repro/internal/opsserver"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// checkpointName is the snapshot file inside a run directory.
const checkpointName = "checkpoint.json"

// manifestConfig is the digested configuration block of an arraysim run
// manifest: everything that determines the simulation's results. For trace
// replays the trace is identified by path only — the file's contents are not
// digested.
type manifestConfig struct {
	Policy      string         `json:"policy"`
	Disks       int            `json:"disks"`
	Requests    int            `json:"requests,omitempty"`
	Intensity   float64        `json:"intensity,omitempty"`
	Seed        int64          `json:"seed,omitempty"`
	TraceFile   string         `json:"trace_file,omitempty"`
	Epochs      int            `json:"epochs"`
	Faults      map[string]any `json:"faults,omitempty"`
	Spares      int            `json:"spares,omitempty"`
	RebuildMBps float64        `json:"rebuild_mbps,omitempty"`
	RAID        map[string]any `json:"raid,omitempty"`
}

func main() {
	var (
		policyName = flag.String("policy", "read", "policy: read | maid | pdc | always-on | drpm | read-replica | striped")
		disks      = flag.Int("disks", 10, "number of disks")
		requests   = flag.Int("requests", 50000, "synthetic trace length (ignored with -trace)")
		intensity  = flag.Float64("intensity", diskarray.LightIntensity, "arrival intensity multiplier")
		tracePath  = flag.String("trace", "", "replay a trace file instead of generating one")
		seed       = flag.Int64("seed", 1, "generator seed")
		epochs     = flag.Int("epochs", 24, "policy epochs across the trace")
		table      = flag.Bool("table", true, "print the per-disk table")
		verbose    = flag.Bool("v", false, "verbose logging (include debug lines)")
		quiet      = flag.Bool("quiet", false, "log errors only")
		timeline   = flag.Bool("timeline", false, "print a power/speed/queue timeline")

		runsDir      = flag.String("runs-dir", "", "record this run in a run store: manifest.json plus telemetry artifacts under <runs-dir>/<name>-<digest>/")
		runName      = flag.String("run-name", "arraysim", "run name inside the store (requires -runs-dir)")
		ckptEvery    = flag.Float64("checkpoint-every", 0, "write a crash-recovery snapshot (checkpoint.json in the run directory) every this many virtual seconds (requires -runs-dir)")
		resume       = flag.Bool("resume", false, "resume from the run directory's checkpoint.json instead of starting fresh (requires -runs-dir and the original -checkpoint-every)")
		version      = flag.Bool("version", false, "print build information and exit")
		telemetryDir = flag.String("telemetry-dir", "", "write per-disk NDJSON/CSV time-series and metrics.json into this directory")
		traceEvents  = flag.Bool("trace-events", false, "also record a Chrome trace_event DES trace (trace.json; requires -telemetry-dir)")
		traceSample  = flag.Int("trace-sample", 1, "record every Nth DES event in the Chrome trace")
		traceDec     = flag.Bool("trace-decisions", false, "record a structured policy decision log (decisions.ndjson) and attribution rollup (requires -telemetry-dir or -runs-dir)")
		replayDir    = flag.String("replay-decisions", "", "counterfactual replay: re-run the run recorded in this run directory (manifest.json + decisions.ndjson) and verify it reproduces, or perturb it with -override")
		overrideArg  = flag.String("override", "", "with -replay-decisions, force one recorded decision: <seq>:skip suppresses the decision and reports the energy/AFR/p99 delta")
		progress     = flag.Bool("progress", false, "log run phases and sim-time/wall-time progress to stderr")
		opsAddr      = flag.String("ops-addr", "", "serve the live ops plane (/metrics, /progress, /healthz) on this address, e.g. 127.0.0.1:9100, while the run executes")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file")
		runtimeTrace = flag.String("runtime-trace", "", "write a Go runtime execution trace to this file")

		withFaults   = flag.Bool("faults", false, "inject Weibull disk failures (hazard scaled by live PRESS AFR)")
		faultSeed    = flag.Int64("fault-seed", 1, "failure-injection seed")
		faultAccel   = flag.Float64("fault-accel", 5e5, "reliability-timescale acceleration (1 = real time)")
		pressScaling = flag.Bool("press-scaling", true, "scale the failure hazard by each disk's live PRESS AFR")
		spares       = flag.Int("spares", 0, "hot-spare pool size (a failure with no spare left loses data)")
		rebuildMBps  = flag.Float64("rebuild-mbps", 0, "rebuild pacing in MB/s (0 = default 50)")

		lseRate      = flag.Float64("lse-rate", 0, "latent-sector-error rate per disk-hour (0 = LSEs off; paper-scale default is "+fmt.Sprint(faults.DefaultLSERatePerHour)+")")
		scrubHours   = flag.Float64("scrub-hours", 0, "Weibull scrub-interval scale in hours (0 = default 168; requires -lse-rate)")
		noScrub      = flag.Bool("no-scrub", false, "disable scrubbing so latent sector errors persist until repair (requires -lse-rate)")
		scrubIOMB    = flag.Float64("scrub-io-mb", 0, "I/O issued per scrub pass in MB (0 = default 256; requires -lse-rate)")
		raidLevel    = flag.String("raid", "", "RAID organization: raid5 | raid6 | repl2 | repl3 (requires -faults)")
		stripeWidth  = flag.Int("stripe-width", 0, "disks per RAID group (0 = whole array / replication default; requires -raid)")
		rebuildHours = flag.Float64("rebuild-hours", 0, "Weibull rebuild-duration scale in hours (0 = fixed -rebuild-mbps pacing; requires -faults)")
	)
	flag.Parse()
	logg := telemetry.NewLogger("arraysim", nil, telemetry.LevelFromFlags(*quiet, *verbose))

	if *version {
		fmt.Println(runstore.VersionLine("arraysim"))
		return
	}

	// Validate the flag set up front: a contradictory or impossible
	// combination should die with a usage message here, not as a cryptic
	// error from deep inside the simulation.
	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "arraysim: %s\n\n", fmt.Sprintf(format, args...))
		flag.Usage()
		os.Exit(2)
	}
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch {
	case flag.NArg() > 0:
		usageErr("unexpected positional arguments %q", flag.Args())
	case *tracePath != "" && (explicit["requests"] || explicit["intensity"] || explicit["seed"]):
		usageErr("-trace replays a file; -requests/-intensity/-seed only apply to generated traces")
	case *disks < 2:
		usageErr("-disks %d: an array needs at least 2 disks", *disks)
	case *epochs <= 0:
		usageErr("-epochs %d must be positive", *epochs)
	case *tracePath == "" && *requests <= 0:
		usageErr("-requests %d must be positive", *requests)
	case *tracePath == "" && *intensity <= 0:
		usageErr("-intensity %g must be positive", *intensity)
	case *spares < 0:
		usageErr("-spares %d cannot be negative", *spares)
	case *rebuildMBps < 0:
		usageErr("-rebuild-mbps %g cannot be negative", *rebuildMBps)
	case *faultAccel <= 0:
		usageErr("-fault-accel %g must be positive", *faultAccel)
	case !*withFaults && (explicit["fault-seed"] || explicit["fault-accel"] || explicit["press-scaling"] || explicit["spares"] || explicit["rebuild-mbps"]):
		usageErr("fault flags require -faults")
	case !*withFaults && (explicit["lse-rate"] || explicit["raid"] || explicit["rebuild-hours"]):
		usageErr("-lse-rate/-raid/-rebuild-hours require -faults")
	case *lseRate < 0:
		usageErr("-lse-rate %g cannot be negative", *lseRate)
	case *lseRate == 0 && (explicit["scrub-hours"] || explicit["no-scrub"] || explicit["scrub-io-mb"]):
		usageErr("scrub flags require -lse-rate (scrubbing exists to clear latent sector errors)")
	case explicit["scrub-hours"] && *scrubHours <= 0:
		usageErr("-scrub-hours %g must be positive", *scrubHours)
	case explicit["scrub-hours"] && *noScrub:
		usageErr("-scrub-hours and -no-scrub contradict each other")
	case *scrubIOMB < 0:
		usageErr("-scrub-io-mb %g cannot be negative", *scrubIOMB)
	case *rebuildHours < 0:
		usageErr("-rebuild-hours %g cannot be negative", *rebuildHours)
	case *raidLevel == "" && explicit["stripe-width"]:
		usageErr("-stripe-width requires -raid")
	}
	if err := flagcheck.Choice("policy", *policyName, flagcheck.Strings(experiment.AllPolicyKinds())...); err != nil {
		usageErr("%v", err)
	}
	if *raidLevel != "" {
		if err := flagcheck.Choice("raid", *raidLevel, flagcheck.Strings(diskarray.RAIDLevels())...); err != nil {
			usageErr("%v", err)
		}
		rc := diskarray.RAIDConfig{Level: diskarray.RAIDLevel(*raidLevel), StripeWidth: *stripeWidth}
		if err := rc.Validate(*disks); err != nil {
			usageErr("%v", err)
		}
	}
	if *replayDir != "" {
		// Replay reconstructs the whole configuration from the recorded
		// manifest; any flag that would change it contradicts the point.
		allowed := map[string]bool{
			"replay-decisions": true, "override": true,
			"checkpoint-every": true, "table": true, "progress": true,
			"v": true, "quiet": true, "ops-addr": true,
		}
		var clash []string
		for name := range explicit {
			if !allowed[name] {
				clash = append(clash, name)
			}
		}
		sort.Strings(clash)
		if len(clash) > 0 {
			usageErr("-replay-decisions derives the run configuration from the recorded manifest; drop -%s", strings.Join(clash, ", -"))
		}
		if err := runReplay(*replayDir, *overrideArg, *ckptEvery); err != nil {
			logg.Fatal(err)
		}
		return
	}
	switch {
	case *runsDir == "" && explicit["run-name"]:
		usageErr("-run-name requires -runs-dir")
	case *ckptEvery < 0:
		usageErr("-checkpoint-every %g cannot be negative", *ckptEvery)
	case *ckptEvery > 0 && *runsDir == "":
		usageErr("-checkpoint-every requires -runs-dir (the snapshot lives in the run directory)")
	case *resume && *runsDir == "":
		usageErr("-resume requires -runs-dir")
	case *resume && *ckptEvery <= 0:
		usageErr("-resume requires the original -checkpoint-every interval (the resumed run must keep the same snapshot cadence to stay bit-identical)")
	case *runsDir != "" && *runName == "":
		usageErr("-run-name must not be empty")
	case *runsDir == "" && *telemetryDir == "" && (*traceEvents || explicit["trace-sample"]):
		usageErr("-trace-events/-trace-sample require -telemetry-dir or -runs-dir")
	case *runsDir == "" && *telemetryDir == "" && *traceDec:
		usageErr("-trace-decisions requires -telemetry-dir or -runs-dir (the decision log is written as decisions.ndjson)")
	case *overrideArg != "" && *replayDir == "":
		usageErr("-override requires -replay-decisions")
	case *traceSample < 1:
		usageErr("-trace-sample %d must be at least 1", *traceSample)
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

	var faultCfg *faults.Config
	if *withFaults {
		fc := faults.Default()
		fc.Seed = *faultSeed
		fc.Acceleration = *faultAccel
		fc.PRESSScaling = *pressScaling
		fc.LSERatePerHour = *lseRate
		fc.NoScrub = *noScrub
		fc.ScrubIOMB = *scrubIOMB
		if *scrubHours > 0 {
			w := faults.DefaultScrub()
			w.ScaleHours = *scrubHours
			fc.Scrub = &w
		}
		if *rebuildHours > 0 {
			fc.RebuildTime = &diskarray.Weibull{Shape: 1, ScaleHours: *rebuildHours}
		}
		faultCfg = &fc
	}

	// With -runs-dir the run records itself: the config digest names the run
	// directory, and telemetry (unless routed elsewhere explicitly) lands
	// next to the manifest so the artifacts travel with the run.
	var (
		store    *runstore.Store
		manifest *runstore.Manifest
		runDir   string
	)
	start := time.Now()
	if *runsDir != "" {
		mc := manifestConfig{
			Policy: *policyName,
			Disks:  *disks,
			Epochs: *epochs,
		}
		if *tracePath != "" {
			mc.TraceFile = *tracePath
		} else {
			mc.Requests = *requests
			mc.Intensity = *intensity
			mc.Seed = *seed
		}
		if faultCfg != nil {
			fcm, err := runstore.ToJSONMap(*faultCfg)
			if err != nil {
				logg.Fatal(err)
			}
			mc.Faults = fcm
			mc.Spares = *spares
			mc.RebuildMBps = *rebuildMBps
			if *raidLevel != "" {
				rcm, err := runstore.ToJSONMap(diskarray.RAIDConfig{
					Level: diskarray.RAIDLevel(*raidLevel), StripeWidth: *stripeWidth,
				})
				if err != nil {
					logg.Fatal(err)
				}
				mc.RAID = rcm
			}
		}
		var err error
		manifest, err = runstore.New("arraysim", *runName, mc)
		if err != nil {
			logg.Fatal(err)
		}
		store, err = runstore.Open(*runsDir)
		if err != nil {
			logg.Fatal(err)
		}
		runDir, err = store.RunDir(manifest)
		if err != nil {
			logg.Fatal(err)
		}
		if *telemetryDir == "" {
			*telemetryDir = runDir
		}
	}

	var rec *telemetry.Recorder
	if *telemetryDir != "" {
		var err error
		rec, err = telemetry.Open(telemetry.Config{
			Dir:              *telemetryDir,
			TraceEvents:      *traceEvents,
			TraceSampleEvery: *traceSample,
			TraceDecisions:   *traceDec,
		})
		if err != nil {
			logg.Fatal(err)
		}
	}
	var prog *telemetry.Progress
	if *progress {
		prog = telemetry.NewProgress(logg, 2*time.Second)
		if rec == nil {
			rec = &telemetry.Recorder{}
		}
		rec.Progress = prog
	}

	// The live ops plane: a read-only HTTP server over lock-free snapshots.
	// Attaching Live/Watch is observation-only — the run is bit-identical
	// with or without -ops-addr.
	var (
		srv   *opsserver.Server
		watch *des.Watch
	)
	if *opsAddr != "" {
		live := telemetry.NewLive()
		watch = des.NewWatch()
		if rec == nil {
			rec = &telemetry.Recorder{}
		}
		rec.Live = live
		var err error
		srv, err = opsserver.Start(opsserver.Options{
			Addr:  *opsAddr,
			Tool:  "arraysim",
			Run:   *runName,
			Live:  live,
			Watch: watch,
			Log:   logg,
		})
		if err != nil {
			logg.Fatal(err)
		}
		defer srv.Close()
	}

	perfCap := runstore.StartPerf()
	prog.Phase("load-trace")
	trace, err := buildTrace(*tracePath, *requests, *intensity, *seed)
	if err != nil {
		logg.Fatal(err)
	}
	stats, err := trace.ComputeStats()
	if err != nil {
		logg.Fatal(err)
	}

	pol, err := experiment.NewPolicy(diskarray.PolicyKind(*policyName))
	if err != nil {
		logg.Fatal(err)
	}

	simCfg := diskarray.SimConfig{
		Disks:        *disks,
		Trace:        trace,
		Policy:       pol,
		EpochSeconds: stats.Duration / float64(*epochs),
	}
	if faultCfg != nil {
		simCfg.Faults = faultCfg
		simCfg.Spares = *spares
		simCfg.RebuildMBps = *rebuildMBps
		if *raidLevel != "" {
			simCfg.RAID = diskarray.RAIDConfig{
				Level: diskarray.RAIDLevel(*raidLevel), StripeWidth: *stripeWidth,
			}
		}
	}
	if *timeline {
		simCfg.SampleInterval = stats.Duration / 48
	}
	simCfg.Telemetry = rec
	simCfg.Watch = watch
	if *ckptEvery > 0 {
		simCfg.Checkpoint = &diskarray.CheckpointSpec{
			EverySimSeconds: *ckptEvery,
			Path:            filepath.Join(runDir, checkpointName),
			Tool:            "arraysim",
			ConfigDigest:    manifest.ConfigDigest,
		}
	}
	var res *diskarray.SimResult
	if *resume {
		ckptPath := filepath.Join(runDir, checkpointName)
		env, err := checkpoint.Read(ckptPath)
		if err != nil {
			rec.Close()
			logg.Fatalf("resume: %v", err)
		}
		if env.Tool != "arraysim" {
			rec.Close()
			logg.Fatalf("resume: %s was written by %q, not arraysim", ckptPath, env.Tool)
		}
		if env.ConfigDigest != manifest.ConfigDigest {
			rec.Close()
			logg.Fatalf("resume: %s was taken under config digest %s, current flags digest to %s — rerun with the original flags",
				ckptPath, env.ConfigDigest, manifest.ConfigDigest)
		}
		prog.Phase("resume")
		logg.Infof("resuming from %s (t=%.1f s, %d events fired)", ckptPath, env.SimTime, env.EventsFired)
		res, err = diskarray.ResumeSimulation(simCfg, env.State)
		if err != nil {
			rec.Close()
			logg.Fatal(err)
		}
	} else {
		prog.Phase("simulate")
		var err error
		res, err = diskarray.Simulate(simCfg)
		if err != nil {
			rec.Close()
			logg.Fatal(err)
		}
	}
	prog.Done("simulate", res.Duration, res.EventsFired)
	perf := perfCap.Sample(res.Duration, res.EventsFired, false)
	if srv != nil {
		srv.MarkDone()
	}
	if err := rec.Close(); err != nil {
		logg.Fatal(err)
	}
	if rec.Dir() != "" {
		logg.Infof("telemetry written to %s", rec.Dir())
	}
	if store != nil {
		manifest.Seed = *seed
		manifest.Policy = res.PolicyName
		if *tracePath != "" {
			manifest.Workload = "trace " + *tracePath
		} else {
			manifest.Workload = fmt.Sprintf("synthetic %d requests, intensity %g", *requests, *intensity)
		}
		manifest.Summary = runstore.SummaryFromResult(res, *withFaults)
		manifest.Attribution = res.Attribution
		manifest.Perf = &runstore.Perf{Run: &perf}
		manifest.CreatedAt = start.UTC().Format(time.RFC3339)
		manifest.WallSeconds = time.Since(start).Seconds()
		dir, err := store.Write(manifest)
		if err != nil {
			logg.Fatal(err)
		}
		logg.Infof("run recorded in %s", dir)
	}

	fmt.Printf("policy %s on %d disks — %d requests over %.0f s\n\n",
		res.PolicyName, res.Disks, res.Requests, res.Duration)
	fmt.Printf("mean response:  %.2f ms (p95 %.2f, p99 %.2f, max %.0f ms)\n",
		res.MeanResponse*1e3, res.P95Response*1e3, res.P99Response*1e3, res.MaxResponse*1e3)
	fmt.Printf("energy:         %.1f kJ\n", res.EnergyJ/1e3)
	fmt.Printf("array AFR:      %.3f%% (worst disk %d)\n", res.ArrayAFR, res.WorstDisk)
	fmt.Printf("migrations:     %d   background ops: %d   epochs: %d\n",
		res.Migrations, res.BackgroundOps, res.Epochs)

	if *withFaults {
		fmt.Printf("\nfailures:       %d (%d on spares, %d data-loss)   repairs: %d\n",
			res.DiskFailures, res.SparesUsed, res.DataLossEvents, res.DiskRepairs)
		fmt.Printf("requests:       %d lost, %d degraded   files re-homed: %d\n",
			res.LostRequests, res.DegradedRequests, res.ReassignedFiles)
		fmt.Printf("rebuild:        %.0f MB, %.1f kJ\n", res.RebuildMB, res.RebuildEnergyJ/1e3)
		if res.MTTDLHours > 0 {
			fmt.Printf("MTTDL:          %.2f h (first data loss, virtual time)\n", res.MTTDLHours)
		}
		if res.LSEModeled {
			fmt.Printf("latent errors:  %d developed, %d scrubbed away, %d pending at end (%d scrub passes, %.0f MB)\n",
				res.LSEErrors, res.LSECleared, res.LSEPending, res.Scrubs, res.ScrubMB)
		}
		if res.RAIDLevel != "" {
			fmt.Printf("RAID:           %s × %d groups — %d data-loss combinations (%d via latent error during rebuild, %d overlapping failures)\n",
				res.RAIDLevel, res.RAIDGroups, res.RAIDDataLossEvents, res.RAIDLSELosses, res.RAIDOverlapLosses)
			if res.MTTDLEstHours > 0 {
				fmt.Printf("MTTDL estimate: %.3g h over %.3g h of accelerated exposure\n",
					res.MTTDLEstHours, res.ExposureHours)
			} else {
				fmt.Printf("MTTDL estimate: no loss observed over %.3g h of accelerated exposure\n",
					res.ExposureHours)
			}
		}
		for _, ev := range res.FailureLog {
			tag := "spare"
			if ev.DataLoss {
				tag = "DATA LOSS"
			}
			fmt.Printf("  t=%9.1f s  disk %2d failed (%s)\n", ev.Time, ev.Disk, tag)
		}
		for _, ev := range res.RAIDLossLog {
			fmt.Printf("  t=%9.1f s  RAID group %d lost data (%s, disk %d)\n",
				ev.Time, ev.Group, ev.Kind, ev.Disk)
		}
	}

	if *timeline {
		fmt.Println()
		diskarray.RenderTimeline(os.Stdout, res.Timeline, 24)
	}

	if *table {
		fmt.Printf("\n%4s %8s %6s %11s %8s %8s %9s %7s\n",
			"disk", "util%", "trans", "trans/day", "temp°C", "AFR%", "requests", "final")
		for _, d := range res.PerDisk {
			fmt.Printf("%4d %8.2f %6d %11.1f %8.1f %8.3f %9d %7s\n",
				d.ID, d.Utilization*100, d.Transitions, d.TransitionsPerDay,
				d.MeanTempC, d.AFR, d.RequestsServed, d.FinalSpeed)
		}
	}
}

// buildTrace loads a trace file or generates the synthetic workload, exactly
// as the recorded run did — replay reuses it so both runs see the same
// requests.
func buildTrace(tracePath string, requests int, intensity float64, seed int64) (*diskarray.Trace, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return diskarray.ReadTrace(f)
	}
	return experiment.SyntheticTrace(requests, intensity, seed)
}

// runReplay is the -replay-decisions mode: rebuild the recorded run's
// configuration from its manifest, re-run it with a fresh decision log, and
// either verify the decision stream and headline metrics reproduce
// bit-identically (no -override) or force one decision and report the
// energy/AFR/p99 cost of that single choice. Replay never writes into the
// run directory.
func runReplay(runDir, override string, ckptEvery float64) error {
	m, err := runstore.ReadManifest(runDir)
	if err != nil {
		return err
	}
	if m.Tool != "arraysim" {
		return fmt.Errorf("replay: %s was recorded by %q; only single arraysim runs can be replayed", runDir, m.Tool)
	}
	var mc manifestConfig
	if err := json.Unmarshal(m.Config, &mc); err != nil {
		return fmt.Errorf("replay: decode manifest config: %w", err)
	}
	basePath := filepath.Join(runDir, "decisions.ndjson")
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("replay: %s has no decision log — record the run with -trace-decisions first: %w", runDir, err)
	}
	baseLog, err := telemetry.ReadDecisionNDJSON(bytes.NewReader(baseBytes))
	if err != nil {
		return fmt.Errorf("replay: %s: %w", basePath, err)
	}

	trace, err := buildTrace(mc.TraceFile, mc.Requests, mc.Intensity, mc.Seed)
	if err != nil {
		return err
	}
	stats, err := trace.ComputeStats()
	if err != nil {
		return err
	}
	pol, err := experiment.NewPolicy(diskarray.PolicyKind(mc.Policy))
	if err != nil {
		return err
	}
	dlog := telemetry.NewDecisionLog()
	cfg := diskarray.SimConfig{
		Disks:        mc.Disks,
		Trace:        trace,
		Policy:       pol,
		EpochSeconds: stats.Duration / float64(mc.Epochs),
		Telemetry:    &telemetry.Recorder{Decisions: dlog},
	}
	faultsOn := false
	if mc.Faults != nil {
		var fc faults.Config
		if err := remarshal(mc.Faults, &fc); err != nil {
			return fmt.Errorf("replay: decode fault config: %w", err)
		}
		cfg.Faults = &fc
		cfg.Spares = mc.Spares
		cfg.RebuildMBps = mc.RebuildMBps
		faultsOn = true
		if mc.RAID != nil {
			var rc diskarray.RAIDConfig
			if err := remarshal(mc.RAID, &rc); err != nil {
				return fmt.Errorf("replay: decode RAID config: %w", err)
			}
			cfg.RAID = rc
		}
	}
	if ckptEvery > 0 {
		// The recorded run's checkpoint ticks are DES events; replaying with
		// the same cadence (into a discarding sink) keeps the event streams —
		// and therefore events_fired — aligned.
		cfg.Checkpoint = &diskarray.CheckpointSpec{
			EverySimSeconds: ckptEvery,
			Tool:            "arraysim",
			ConfigDigest:    m.ConfigDigest,
			Sink:            func([]byte) error { return nil },
		}
	}

	var forcedSeq uint64
	if override != "" {
		seqStr, action, ok := strings.Cut(override, ":")
		if !ok {
			return fmt.Errorf("replay: -override %q is not <seq>:<action>", override)
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil || seq == 0 {
			return fmt.Errorf("replay: -override sequence %q is not a positive integer", seqStr)
		}
		if action != "skip" {
			return fmt.Errorf("replay: -override action %q not supported (only: skip)", action)
		}
		if int(seq) > baseLog.Len() {
			return fmt.Errorf("replay: decision %d out of range; the recorded log has %d decisions", seq, baseLog.Len())
		}
		base := baseLog.Records()[seq-1]
		if base.Kind == telemetry.DecisionSpinUp || base.Kind == telemetry.DecisionRebuildPace {
			return fmt.Errorf("replay: decision %d is a %s, which cannot be skipped (queued work must eventually be served)", seq, base.Kind)
		}
		cfg.DecisionOverrides = map[uint64]string{seq: action}
		forcedSeq = seq
	}

	res, err := diskarray.Simulate(cfg)
	if err != nil {
		return err
	}
	sum := runstore.SummaryFromResult(res, faultsOn)

	if forcedSeq == 0 {
		var buf bytes.Buffer
		if err := dlog.WriteNDJSON(&buf); err != nil {
			return err
		}
		logOK := bytes.Equal(buf.Bytes(), baseBytes)
		sumOK := sum.EventsFired == m.Summary.EventsFired &&
			sum.EnergyJ == m.Summary.EnergyJ &&
			sum.P99ResponseS == m.Summary.P99ResponseS
		if !logOK || !sumOK {
			fmt.Printf("replay DIVERGED from %s\n", runDir)
			if !logOK {
				fmt.Printf("  decision log: %d recorded vs %d replayed decisions (or differing records)\n",
					baseLog.Len(), dlog.Len())
			}
			if !sumOK {
				fmt.Printf("  events fired: %.0f vs %.0f\n", m.Summary.EventsFired, sum.EventsFired)
				fmt.Printf("  energy (J):   %v vs %v\n", m.Summary.EnergyJ, sum.EnergyJ)
				fmt.Printf("  p99 (s):      %v vs %v\n", m.Summary.P99ResponseS, sum.P99ResponseS)
			}
			fmt.Println("likely causes: different binary, a moved trace file, or a run recorded with -checkpoint-every replayed without it")
			os.Exit(1)
		}
		fmt.Printf("replay of %s reproduces the baseline bit-identically\n", runDir)
		fmt.Printf("  %d decisions, %.0f events, %.1f kJ, p99 %.2f ms\n",
			dlog.Len(), sum.EventsFired, sum.EnergyJ/1e3, sum.P99ResponseS*1e3)
		return nil
	}

	base := baseLog.Records()[forcedSeq-1]
	fmt.Printf("counterfactual: decision %d (%s disk %d at t=%.1f s, cause %q) forced to skip\n",
		forcedSeq, base.Kind, base.Disk, base.T, base.Cause)
	fmt.Printf("  baseline:  %.3f kJ, AFR %.4f%%, p99 %.3f ms\n",
		m.Summary.EnergyJ/1e3, m.Summary.ArrayAFRPct, m.Summary.P99ResponseS*1e3)
	fmt.Printf("  replayed:  %.3f kJ, AFR %.4f%%, p99 %.3f ms\n",
		sum.EnergyJ/1e3, sum.ArrayAFRPct, sum.P99ResponseS*1e3)
	fmt.Printf("  delta:     %+.3f kJ, %+.5f%% AFR, %+.3f ms p99  (%d vs %d decisions)\n",
		(sum.EnergyJ-m.Summary.EnergyJ)/1e3,
		sum.ArrayAFRPct-m.Summary.ArrayAFRPct,
		(sum.P99ResponseS-m.Summary.P99ResponseS)*1e3,
		dlog.Len(), baseLog.Len())
	return nil
}

// remarshal converts a decoded JSON map back into a typed config struct.
func remarshal(src map[string]any, dst any) error {
	raw, err := json.Marshal(src)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}
