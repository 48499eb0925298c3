// Command fleetsim runs a multi-array cluster simulation — N arrays on one
// shared-clock DES behind a routing tier with deadlines, retries, hedging,
// health gating, and cross-array failover — and prints a fleet report.
//
//	fleetsim -arrays 4 -replicas 2 -policy read -routing least-loaded
//	fleetsim -arrays 4 -deadline 2 -max-attempts 3 -hedge-mult 3
//	fleetsim -arrays 6 -racks 3 -shocks -shock-interval 600
//	fleetsim -arrays 4 -faults -spares 1 -fault-accel 5e5
//	fleetsim -arrays 2 -runs-dir runs -checkpoint-every 500
//	fleetsim -arrays 2 -runs-dir runs -checkpoint-every 500 -resume
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	diskarray "repro"
	"repro/internal/atomicio"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
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

// manifestConfig is the digested configuration block of a fleetsim run
// manifest: everything that determines the fleet's results.
type manifestConfig struct {
	Arrays     int    `json:"arrays"`
	Replicas   int    `json:"replicas"`
	Racks      int    `json:"racks"`
	Enclosures int    `json:"enclosures"`
	Disks      int    `json:"disks"`
	Policy     string `json:"policy"`
	Routing    string `json:"routing"`

	Requests  int     `json:"requests"`
	Intensity float64 `json:"intensity"`
	Seed      int64   `json:"seed"`
	Epochs    int     `json:"epochs"`

	Deadline      float64 `json:"deadline_seconds,omitempty"`
	MaxAttempts   int     `json:"max_attempts,omitempty"`
	RetryBase     float64 `json:"retry_base_seconds,omitempty"`
	RetryCap      float64 `json:"retry_cap_seconds,omitempty"`
	RetryJitter   float64 `json:"retry_jitter_frac,omitempty"`
	HedgeMult     float64 `json:"hedge_after_p99_mult,omitempty"`
	HedgeFallback float64 `json:"hedge_fallback_seconds,omitempty"`
	MaxBacklog    int     `json:"max_backlog,omitempty"`

	Shocks map[string]any `json:"shocks,omitempty"`
	Faults map[string]any `json:"faults,omitempty"`
	Spares int            `json:"spares,omitempty"`
}

func main() {
	var (
		arrays     = flag.Int("arrays", 4, "fleet size (independent arrays on one shared clock)")
		replicas   = flag.Int("replicas", 2, "arrays each file is placed on (failover and hedging need at least 2)")
		racks      = flag.Int("racks", 2, "racks (= power domains) the arrays are striped over")
		enclosures = flag.Int("enclosures", 1, "enclosures per rack (reporting subdivision)")
		disks      = flag.Int("disks", 8, "disks per array")
		policyName = flag.String("policy", "read", "member energy policy: read | maid | pdc | always-on | drpm | read-replica | striped")
		routing    = flag.String("routing", "round-robin", "routing policy: round-robin | least-loaded | afr-aware")

		requests  = flag.Int("requests", 50000, "synthetic fleet trace length")
		intensity = flag.Float64("intensity", diskarray.LightIntensity, "arrival intensity multiplier")
		seed      = flag.Int64("seed", 1, "generator seed (also drives retry jitter)")
		epochs    = flag.Int("epochs", 24, "member policy epochs across the trace")

		deadline      = flag.Float64("deadline", 5, "per-attempt deadline in virtual seconds (0 disables timeouts and retries)")
		maxAttempts   = flag.Int("max-attempts", 3, "total attempts per request (first + retries + hedges + failovers)")
		retryBase     = flag.Float64("retry-base", 0.25, "retry backoff base in virtual seconds")
		retryCap      = flag.Float64("retry-cap", 30, "retry backoff cap in virtual seconds")
		retryJitter   = flag.Float64("retry-jitter", 0.2, "retry backoff jitter fraction in [0,1] (seeded, deterministic)")
		hedgeMult     = flag.Float64("hedge-mult", 0, "issue a hedged attempt after this multiple of the running fleet p99 (0 disables hedging)")
		hedgeFallback = flag.Float64("hedge-fallback", 1, "hedge delay in virtual seconds before the latency histogram warms up")
		maxBacklog    = flag.Int("max-backlog", 0, "mark an array draining above this foreground backlog (0 disables backpressure)")

		withShocks    = flag.Bool("shocks", false, "inject rack power shocks (correlated faults)")
		shockSeed     = flag.Int64("shock-seed", 1, "shock schedule seed")
		shockInterval = flag.Float64("shock-interval", 900, "mean virtual seconds between shocks per rack")
		shockOutage   = flag.Float64("shock-outage", 60, "mean outage duration in virtual seconds")

		withFaults = flag.Bool("faults", false, "inject Weibull disk failures into every member array")
		faultSeed  = flag.Int64("fault-seed", 1, "failure-injection seed")
		faultAccel = flag.Float64("fault-accel", 5e5, "reliability-timescale acceleration")
		spares     = flag.Int("spares", 0, "hot spares per array")

		runsDir   = flag.String("runs-dir", "", "record this run in a run store: manifest.json under <runs-dir>/<name>-<digest>/")
		runName   = flag.String("run-name", "fleetsim", "run name inside the store (requires -runs-dir)")
		ckptEvery = flag.Float64("checkpoint-every", 0, "write a whole-fleet crash-recovery snapshot every this many virtual seconds (requires -runs-dir)")
		resume    = flag.Bool("resume", false, "resume from the run directory's checkpoint.json (requires -runs-dir and the original -checkpoint-every)")
		traceDec  = flag.Bool("trace-decisions", false, "record the router's retry/hedge/failover decision log as decisions.ndjson (requires -runs-dir)")
		version   = flag.Bool("version", false, "print build information and exit")
		table     = flag.Bool("table", true, "print the per-array table")
		verbose   = flag.Bool("v", false, "verbose logging (include debug lines)")
		quiet     = flag.Bool("quiet", false, "log errors only")
		opsAddr   = flag.String("ops-addr", "", "serve the live ops plane (/metrics, /progress, /healthz) on this address while the fleet runs")
	)
	flag.Parse()
	logg := telemetry.NewLogger("fleetsim", nil, telemetry.LevelFromFlags(*quiet, *verbose))

	if *version {
		fmt.Println(runstore.VersionLine("fleetsim"))
		return
	}

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fleetsim: %s\n\n", fmt.Sprintf(format, args...))
		flag.Usage()
		os.Exit(2)
	}
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := flagcheck.Choice("policy", *policyName, flagcheck.Strings(experiment.AllPolicyKinds())...); err != nil {
		usageErr("%v", err)
	}
	if err := flagcheck.Choice("routing", *routing, flagcheck.Strings(cluster.RoutingPolicies())...); err != nil {
		usageErr("%v", err)
	}
	switch {
	case flag.NArg() > 0:
		usageErr("unexpected positional arguments %q", flag.Args())
	case *arrays < 1:
		usageErr("-arrays %d: a fleet needs at least 1 array", *arrays)
	case *replicas < 1 || *replicas > *arrays:
		usageErr("-replicas %d must be in [1, %d]", *replicas, *arrays)
	case *disks < 2:
		usageErr("-disks %d: an array needs at least 2 disks", *disks)
	case *epochs <= 0:
		usageErr("-epochs %d must be positive", *epochs)
	case *requests <= 0:
		usageErr("-requests %d must be positive", *requests)
	case *intensity <= 0:
		usageErr("-intensity %g must be positive", *intensity)
	case !*withShocks && (explicit["shock-seed"] || explicit["shock-interval"] || explicit["shock-outage"]):
		usageErr("shock flags require -shocks")
	case !*withFaults && (explicit["fault-seed"] || explicit["fault-accel"] || explicit["spares"]):
		usageErr("fault flags require -faults")
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
	case *traceDec && *runsDir == "":
		usageErr("-trace-decisions requires -runs-dir (the decision log is written as decisions.ndjson)")
	case *runsDir != "" && *runName == "":
		usageErr("-run-name must not be empty")
	}

	var shocks faults.ShockConfig
	if *withShocks {
		shocks = faults.ShockConfig{
			Enabled:             true,
			Seed:                *shockSeed,
			MeanIntervalSeconds: *shockInterval,
			MeanOutageSeconds:   *shockOutage,
		}
	}
	var faultCfg *faults.Config
	if *withFaults {
		fc := faults.Default()
		fc.Seed = *faultSeed
		fc.Acceleration = *faultAccel
		faultCfg = &fc
	}

	var (
		store    *runstore.Store
		manifest *runstore.Manifest
		runDir   string
	)
	start := time.Now()
	if *runsDir != "" {
		mc := manifestConfig{
			Arrays: *arrays, Replicas: *replicas, Racks: *racks,
			Enclosures: *enclosures, Disks: *disks,
			Policy: *policyName, Routing: *routing,
			Requests: *requests, Intensity: *intensity, Seed: *seed, Epochs: *epochs,
			Deadline: *deadline, MaxAttempts: *maxAttempts,
			RetryBase: *retryBase, RetryCap: *retryCap, RetryJitter: *retryJitter,
			HedgeMult: *hedgeMult, HedgeFallback: *hedgeFallback, MaxBacklog: *maxBacklog,
		}
		if *withShocks {
			m, err := runstore.ToJSONMap(shocks)
			if err != nil {
				logg.Fatal(err)
			}
			mc.Shocks = m
		}
		if faultCfg != nil {
			m, err := runstore.ToJSONMap(*faultCfg)
			if err != nil {
				logg.Fatal(err)
			}
			mc.Faults = m
			mc.Spares = *spares
		}
		var err error
		manifest, err = runstore.New("fleetsim", *runName, mc)
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
	}

	trace, err := experiment.SyntheticTrace(*requests, *intensity, *seed)
	if err != nil {
		logg.Fatal(err)
	}
	stats, err := trace.ComputeStats()
	if err != nil {
		logg.Fatal(err)
	}

	kind := diskarray.PolicyKind(*policyName)
	cfg := cluster.Config{
		Arrays:   *arrays,
		Replicas: *replicas,
		Topology: cluster.Topology{Racks: *racks, EnclosuresPerRack: *enclosures},
		Trace:    trace,
		Proto: diskarray.SimConfig{
			Disks:        *disks,
			EpochSeconds: stats.Duration / float64(*epochs),
			Spares:       *spares,
		},
		MakePolicy:           func(int) (diskarray.Policy, error) { return experiment.NewPolicy(kind) },
		Routing:              cluster.RoutingPolicy(*routing),
		DeadlineSeconds:      *deadline,
		MaxAttempts:          *maxAttempts,
		RetryBaseSeconds:     *retryBase,
		RetryCapSeconds:      *retryCap,
		RetryJitterFrac:      *retryJitter,
		HedgeAfterP99Mult:    *hedgeMult,
		HedgeFallbackSeconds: *hedgeFallback,
		MaxBacklog:           *maxBacklog,
		Seed:                 *seed,
		Shocks:               shocks,
	}
	if faultCfg != nil {
		cfg.Proto.Faults = faultCfg
	}
	var dlog *telemetry.DecisionLog
	if *traceDec {
		dlog = telemetry.NewDecisionLog()
		cfg.Telemetry = &telemetry.Recorder{Decisions: dlog}
	}
	if *ckptEvery > 0 {
		cfg.Checkpoint = &cluster.CheckpointSpec{
			EverySimSeconds: *ckptEvery,
			Path:            filepath.Join(runDir, checkpointName),
			Tool:            "fleetsim",
			ConfigDigest:    manifest.ConfigDigest,
		}
	}

	// The live ops plane: fleet counters and per-array health next to the
	// shared engine's watchdog position. Observation-only — the run is
	// bit-identical with or without -ops-addr.
	var srv *opsserver.Server
	if *opsAddr != "" {
		fleet := telemetry.NewFleetLive(*arrays)
		watch := des.NewWatch()
		cfg.FleetLive = fleet
		cfg.Watch = watch
		var err error
		srv, err = opsserver.Start(opsserver.Options{
			Addr:  *opsAddr,
			Tool:  "fleetsim",
			Run:   *runName,
			Watch: watch,
			Fleet: fleet,
			Log:   logg,
		})
		if err != nil {
			logg.Fatal(err)
		}
		defer srv.Close()
	}

	perfCap := runstore.StartPerf()
	var res *cluster.Result
	if *resume {
		ckptPath := filepath.Join(runDir, checkpointName)
		env, err := checkpoint.Read(ckptPath)
		if err != nil {
			logg.Fatalf("resume: %v", err)
		}
		if env.Tool != "fleetsim" {
			logg.Fatalf("resume: %s was written by %q, not fleetsim", ckptPath, env.Tool)
		}
		if env.ConfigDigest != manifest.ConfigDigest {
			logg.Fatalf("resume: %s was taken under config digest %s, current flags digest to %s — rerun with the original flags",
				ckptPath, env.ConfigDigest, manifest.ConfigDigest)
		}
		logg.Infof("resuming from %s (t=%.1f s, %d events fired)", ckptPath, env.SimTime, env.EventsFired)
		res, err = cluster.Resume(cfg, env.State)
		if err != nil {
			logg.Fatal(err)
		}
	} else {
		var err error
		res, err = cluster.Run(cfg)
		if err != nil {
			logg.Fatal(err)
		}
	}
	perf := perfCap.Sample(res.Duration, res.EventsFired, false)
	if srv != nil {
		srv.MarkDone()
	}

	if store != nil {
		manifest.Seed = *seed
		manifest.Policy = *policyName
		manifest.Workload = fmt.Sprintf("synthetic %d requests, intensity %g", *requests, *intensity)
		manifest.Summary = experiment.FleetSummary(res, *withFaults)
		manifest.Perf = &runstore.Perf{Run: &perf}
		manifest.CreatedAt = start.UTC().Format(time.RFC3339)
		manifest.WallSeconds = time.Since(start).Seconds()
		dir, err := store.Write(manifest)
		if err != nil {
			logg.Fatal(err)
		}
		if dlog != nil {
			f, err := atomicio.Create(filepath.Join(dir, "decisions.ndjson"))
			if err != nil {
				logg.Fatal(err)
			}
			if err := dlog.WriteNDJSON(f); err != nil {
				f.Close()
				logg.Fatal(err)
			}
			if err := f.Close(); err != nil {
				logg.Fatal(err)
			}
		}
		logg.Infof("run recorded in %s", dir)
	}

	fmt.Printf("fleet of %d arrays (%d disks each, %d racks) — %s members, %s routing\n",
		res.Arrays, *disks, *racks, *policyName, res.Routing)
	fmt.Printf("requests:       %d arrived, %d served, %d failed, %d shed\n",
		res.Requests, res.Served, res.Failed, res.Shed)
	fmt.Printf("fleet latency:  mean %.2f ms (p95 %.2f, p99 %.2f, max %.0f ms)\n",
		res.MeanResponse*1e3, res.P95Response*1e3, res.P99Response*1e3, res.MaxResponse*1e3)
	fmt.Printf("resilience:     %d retries, %d hedges (%d won), %d failovers, %d timeouts, %d deferred\n",
		res.Retries, res.Hedges, res.HedgeWins, res.Failovers, res.Timeouts, res.Deferred)
	fmt.Printf("faults:         %d disk failures, %d member-lost requests, %d rack shocks\n",
		res.DiskFailures, res.LostRequests, res.ShocksInjected)
	fmt.Printf("energy:         %.1f kJ   worst member AFR: %.3f%%   events: %d\n",
		res.EnergyJ/1e3, res.WorstAFR, res.EventsFired)

	if *table {
		fmt.Printf("\n%5s %4s %4s %9s %8s %8s %8s %9s\n",
			"array", "rack", "encl", "requests", "energy", "AFR%", "failures", "dataloss")
		for _, a := range res.PerArray {
			fmt.Printf("%5d %4d %4d %9d %7.1fk %8.3f %8d %9d\n",
				a.Array, a.Rack, a.Enclosure, a.Requests, a.EnergyJ/1e3,
				a.ArrayAFR, a.DiskFailures, a.DataLossEvents)
		}
	}
}
