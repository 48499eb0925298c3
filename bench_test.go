// Benchmarks regenerating every table and figure in the paper's evaluation.
//
// The analytic figures (2b, 3b, 4a/4b, 5a/5b, and the §3.4 derivation) are
// cheap model evaluations. The Figure 7 panels are full trace-driven sweeps;
// their benchmarks run a reduced-scale sweep per iteration and report the
// headline comparison as custom metrics (read_vs_maid_pct, read_vs_pdc_pct),
// so `go test -bench` output doubles as the reproduction table. Run
// cmd/experiments for the full-scale numbers.
package diskarray

import (
	"strconv"
	"testing"

	"repro/internal/experiment"
)

// ---- Figure 2b: the temperature-reliability function ----

func BenchmarkFig2bTemperatureFunction(b *testing.B) {
	m := NewPRESS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Fig2bTemperatureFunction(m, 31)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].AFR, "afr_at_50C_pct")
		}
	}
}

// ---- Figure 3b: the utilization-reliability function ----

func BenchmarkFig3bUtilizationFunction(b *testing.B) {
	m := NewPRESS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Fig3bUtilizationFunction(m, 16)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].AFR, "afr_at_100pct_util")
		}
	}
}

// ---- Figure 4a/4b: the IDEMA adder and frequency-reliability function ----

func BenchmarkFig4bFrequencyFunction(b *testing.B) {
	m := NewPRESS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Fig4bFrequencyFunction(m, 33)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].AFR, "adder_at_1600_per_day")
		}
	}
}

func BenchmarkFig4aIDEMAAdder(b *testing.B) {
	m := NewPRESS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig4aIDEMAAdder(m, 33); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figures 5a/5b: the PRESS surfaces at 40 and 50 °C ----

func BenchmarkFig5PressSurface(b *testing.B) {
	m := NewPRESS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at40, at50, err := experiment.Fig5Surfaces(m, 16, 33)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(at40[len(at40)-1].AFR, "afr_40C_worst_corner")
			b.ReportMetric(at50[len(at50)-1].AFR, "afr_50C_worst_corner")
		}
	}
}

// ---- §3.4: the Coffin-Manson derivation constants ----

func BenchmarkCoffinMansonDerivation(b *testing.B) {
	b.ReportAllocs()
	var d Derivation
	for i := 0; i < b.N; i++ {
		d = DefaultCoffinManson().Derive()
	}
	b.ReportMetric(d.TransitionsToFailure, "transitions_to_failure")
	b.ReportMetric(d.DailyBudget5yr, "daily_budget_5yr")
}

// ---- Figure 7 sweeps ----

// benchSweep runs a reduced-scale Figure 7 sweep once per iteration and
// reports READ's mean improvement over MAID and PDC on the given metric.
func benchSweep(b *testing.B, metric Metric, intensity float64) {
	b.Helper()
	cfg := DefaultSweepConfig()
	cfg.Scale = 0.01
	cfg.Intensity = intensity
	cfg.DiskCounts = []int{6, 10, 16}
	var vsMAID, vsPDC float64
	for i := 0; i < b.N; i++ {
		res, err := RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := res.ImprovementOver(metric, KindREAD, KindMAID)
		if err != nil {
			b.Fatal(err)
		}
		p, err := res.ImprovementOver(metric, KindREAD, KindPDC)
		if err != nil {
			b.Fatal(err)
		}
		vsMAID, vsPDC = m.MeanPercent, p.MeanPercent
	}
	b.ReportMetric(vsMAID, "read_vs_maid_pct")
	b.ReportMetric(vsPDC, "read_vs_pdc_pct")
}

func BenchmarkFig7aReliabilityLight(b *testing.B) {
	benchSweep(b, MetricAFR, LightIntensity)
}

func BenchmarkFig7bEnergyLight(b *testing.B) {
	benchSweep(b, MetricEnergy, LightIntensity)
}

func BenchmarkFig7cResponseTimeLight(b *testing.B) {
	benchSweep(b, MetricResponse, LightIntensity)
}

func BenchmarkFig7aReliabilityHeavy(b *testing.B) {
	benchSweep(b, MetricAFR, HeavyIntensity)
}

func BenchmarkFig7bEnergyHeavy(b *testing.B) {
	benchSweep(b, MetricEnergy, HeavyIntensity)
}

func BenchmarkFig7cResponseTimeHeavy(b *testing.B) {
	benchSweep(b, MetricResponse, HeavyIntensity)
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblationTransitionCap sweeps READ's daily transition cap S and
// reports the resulting array AFR — the in-simulator version of the paper's
// "is it worthwhile above 65/day?" question.
func BenchmarkAblationTransitionCap(b *testing.B) {
	for _, s := range []int{5, 40, 200, 1600} {
		s := s
		b.Run("S="+strconv.Itoa(s), func(b *testing.B) {
			cfg := DefaultGenConfig()
			cfg.PhaseSeconds = 7200 * 0.004
			cfg.PhaseRotate = 0.10
			cfg.DiurnalProfile = DefaultDiurnalProfile()
			cfg.NumRequests = 6000
			cfg.MeanInterarrival /= LightIntensity
			trace, err := GenerateTrace(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var afr float64
			for i := 0; i < b.N; i++ {
				res, err := Simulate(SimConfig{
					Disks:        8,
					Trace:        trace,
					Policy:       NewREAD(READConfig{MaxTransitionsPerDay: s}),
					EpochSeconds: 15,
				})
				if err != nil {
					b.Fatal(err)
				}
				afr = res.ArrayAFR
			}
			b.ReportMetric(afr, "array_afr_pct")
		})
	}
}

// BenchmarkAblationUncappedDRPM contrasts READ against the uncapped
// dynamic-speed policy on the same workload.
func BenchmarkAblationUncappedDRPM(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.PhaseSeconds = 7200 * 0.004
	cfg.PhaseRotate = 0.10
	cfg.DiurnalProfile = DefaultDiurnalProfile()
	cfg.NumRequests = 6000
	cfg.MeanInterarrival /= LightIntensity
	trace, err := GenerateTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var readAFR, drpmAFR float64
	for i := 0; i < b.N; i++ {
		r, err := Simulate(SimConfig{Disks: 8, Trace: trace, Policy: NewREAD(READConfig{}), EpochSeconds: 15})
		if err != nil {
			b.Fatal(err)
		}
		d, err := Simulate(SimConfig{Disks: 8, Trace: trace, Policy: NewDRPM(DRPMConfig{}), EpochSeconds: 15})
		if err != nil {
			b.Fatal(err)
		}
		readAFR, drpmAFR = r.ArrayAFR, d.ArrayAFR
	}
	b.ReportMetric(readAFR, "read_afr_pct")
	b.ReportMetric(drpmAFR, "drpm_afr_pct")
}

// BenchmarkAblationIntegrationModes compares the three PRESS integrator
// rules on a fixed factor set.
func BenchmarkAblationIntegrationModes(b *testing.B) {
	factors := []Factors{
		{TempC: 50, Utilization: 0.8, TransitionsPerDay: 20},
		{TempC: 45, Utilization: 0.4, TransitionsPerDay: 300},
		{TempC: 40, Utilization: 0.3, TransitionsPerDay: 2},
	}
	for _, mode := range []IntegrationMode{SharedBaseline, MaxFactor, MeanFactor} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			m := NewPRESS(WithIntegrationMode(mode))
			var afr float64
			for i := 0; i < b.N; i++ {
				v, err := m.ArrayAFR(factors)
				if err != nil {
					b.Fatal(err)
				}
				afr = v
			}
			b.ReportMetric(afr, "array_afr_pct")
		})
	}
}

// ---- Extensions (paper §6 future work) ----

// extensionTrace is the shared workload for the extension benchmarks.
func extensionTrace(b *testing.B) *Trace {
	b.Helper()
	cfg := DefaultGenConfig()
	cfg.PhaseSeconds = 7200 * 0.004
	cfg.PhaseRotate = 0.10
	cfg.DiurnalProfile = DefaultDiurnalProfile()
	cfg.NumRequests = 6000
	trace, err := GenerateTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

// BenchmarkExtensionReplication compares READ against its replication
// variant: same service, fewer background transfers.
func BenchmarkExtensionReplication(b *testing.B) {
	trace := extensionTrace(b)
	var readOps, repOps float64
	for i := 0; i < b.N; i++ {
		r, err := Simulate(SimConfig{Disks: 8, Trace: trace, Policy: NewREAD(READConfig{}), EpochSeconds: 15})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Simulate(SimConfig{Disks: 8, Trace: trace,
			Policy: NewREADReplica(READReplicaConfig{}), EpochSeconds: 15})
		if err != nil {
			b.Fatal(err)
		}
		readOps, repOps = float64(r.BackgroundOps), float64(rep.BackgroundOps)
	}
	b.ReportMetric(readOps, "read_bg_ops")
	b.ReportMetric(repOps, "replica_bg_ops")
}

// BenchmarkExtensionStriping measures the large-file latency win of
// RAID-0-style striping on a media workload.
func BenchmarkExtensionStriping(b *testing.B) {
	files := FileSet{}
	for i := 0; i < 40; i++ {
		files = append(files, File{ID: i, SizeMB: 30 + float64(i), AccessRate: 1 / float64(i+1)})
	}
	var reqs []Request
	for i := 0; i < 500; i++ {
		reqs = append(reqs, Request{Arrival: float64(i) * 2, FileID: i % 40})
	}
	trace := &Trace{Files: files, Requests: reqs}
	var plainMS, stripedMS float64
	for i := 0; i < b.N; i++ {
		p, err := Simulate(SimConfig{Disks: 8, Trace: trace, Policy: NewAlwaysOn()})
		if err != nil {
			b.Fatal(err)
		}
		s, err := Simulate(SimConfig{Disks: 8, Trace: trace,
			Policy: NewStripedAlwaysOn(StripedConfig{Width: 4})})
		if err != nil {
			b.Fatal(err)
		}
		plainMS, stripedMS = p.MeanResponse*1e3, s.MeanResponse*1e3
	}
	b.ReportMetric(plainMS, "sequential_ms")
	b.ReportMetric(stripedMS, "striped_ms")
}

// BenchmarkExtensionDriveProfiles runs READ across the three drive classes.
func BenchmarkExtensionDriveProfiles(b *testing.B) {
	trace := extensionTrace(b)
	profiles := map[string]DiskParams{
		"cheetah10k":    DefaultDiskParams(),
		"enterprise15k": EnterpriseParams(),
		"nearline7k":    NearlineParams(),
	}
	for name, params := range profiles {
		params := params
		b.Run(name, func(b *testing.B) {
			var energy, afr float64
			for i := 0; i < b.N; i++ {
				res, err := Simulate(SimConfig{
					Disks: 8, Trace: trace, DiskParams: params,
					Policy: NewREAD(READConfig{}), EpochSeconds: 15,
				})
				if err != nil {
					b.Fatal(err)
				}
				energy, afr = res.EnergyJ, res.ArrayAFR
			}
			b.ReportMetric(energy/1e3, "energy_kJ")
			b.ReportMetric(afr, "array_afr_pct")
		})
	}
}

// BenchmarkExtensionSeekModel quantifies the cost of the distance-based
// seek model versus the flat approximation.
func BenchmarkExtensionSeekModel(b *testing.B) {
	trace := extensionTrace(b)
	for _, mode := range []string{"flat", "curve"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			params := DefaultDiskParams()
			if mode == "curve" {
				params.Seek = DefaultSeekModel()
			}
			var ms float64
			for i := 0; i < b.N; i++ {
				res, err := Simulate(SimConfig{
					Disks: 8, Trace: trace, DiskParams: params, Policy: NewAlwaysOn(),
				})
				if err != nil {
					b.Fatal(err)
				}
				ms = res.MeanResponse * 1e3
			}
			b.ReportMetric(ms, "mean_response_ms")
		})
	}
}

// BenchmarkExtensionWorth runs the title-question arithmetic.
func BenchmarkExtensionWorth(b *testing.B) {
	trace := extensionTrace(b)
	baseline, err := Simulate(SimConfig{Disks: 8, Trace: trace, Policy: NewAlwaysOn(), EpochSeconds: 15})
	if err != nil {
		b.Fatal(err)
	}
	scheme, err := Simulate(SimConfig{Disks: 8, Trace: trace, Policy: NewREAD(READConfig{}), EpochSeconds: 15})
	if err != nil {
		b.Fatal(err)
	}
	model := DefaultCostModel()
	var net float64
	for i := 0; i < b.N; i++ {
		v, err := CompareCost(model, scheme, baseline)
		if err != nil {
			b.Fatal(err)
		}
		net = v.NetPerYear
	}
	b.ReportMetric(net, "read_net_usd_per_year")
}

// ---- Substrate micro-benchmarks ----

func BenchmarkSimulatorThroughput(b *testing.B) {
	// End-to-end simulated requests per second of wall time, the figure
	// that bounds full-scale experiment runtime.
	cfg := DefaultGenConfig()
	cfg.NumRequests = 20000
	trace, err := GenerateTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := Simulate(SimConfig{Disks: 10, Trace: trace, Policy: NewAlwaysOn()})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Requests
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkFleetThroughput is the fleet counterpart of
// BenchmarkSimulatorThroughput: 16 READ arrays on one shared clock behind
// least-loaded routing with two replicas per file, reporting simulated
// requests per second of wall time and allocations per run.
func BenchmarkFleetThroughput(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.NumRequests = 50000
	trace, err := GenerateTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res, err := SimulateFleet(FleetConfig{
			Arrays:     16,
			Replicas:   2,
			Trace:      trace,
			Proto:      SimConfig{Disks: 8, EpochSeconds: 30},
			MakePolicy: func(int) (Policy, error) { return NewREAD(READConfig{}), nil },
			Routing:    RoutingLeastLoaded,
		})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Requests
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "requests/s")
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := DefaultGenConfig()
	cfg.NumRequests = 100000
	cfg.DiurnalProfile = DefaultDiurnalProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
