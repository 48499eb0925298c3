package policy

import (
	"repro/internal/array"
	"repro/internal/diskmodel"
)

// PDCConfig parameterizes the PDC policy.
type PDCConfig struct {
	// LoadFraction is the share of one disk's high-speed service capacity
	// that PDC is willing to pack onto a disk (measured on the day-average
	// load) before overflowing to the next one. Smaller values spread load
	// wider; larger values skew harder. Default 0.35, which keeps the
	// workhorse below saturation through a 2x diurnal peak.
	LoadFraction float64
	// IdleThreshold is the idleness threshold H before a disk drops to
	// low speed. Zero picks 30 s (~2x the drive's energy break-even
	// idle), a standard fixed-threshold choice; PDC's direct-serving tail
	// disks oscillate around it as popularity drifts.
	IdleThreshold float64
	// SpinUpQueue is the queue depth (including the arriving request) at
	// a low-speed disk that triggers a spin-up. Default 1: any access to
	// a sleeping disk activates it, the demand-driven power management
	// the paper's baselines integrate ("hybrid techniques"). Raising it
	// trades response time for fewer transitions.
	SpinUpQueue int
	// MaxMigrationsPerEpoch bounds migration churn. Default 1024 — PDC
	// re-packs the whole popularity order every epoch and is meant to be
	// migration-hungry; the bound is an overload stop, not a tuning knob.
	MaxMigrationsPerEpoch int
}

func (c *PDCConfig) setDefaults() {
	if c.LoadFraction <= 0 || c.LoadFraction > 1 {
		c.LoadFraction = 0.35
	}
	if c.SpinUpQueue <= 0 {
		c.SpinUpQueue = 1
	}
	if c.MaxMigrationsPerEpoch <= 0 {
		c.MaxMigrationsPerEpoch = 1024
	}
}

// PDC implements Popular Data Concentration: files are sorted by popularity
// and packed onto the lowest-numbered disks up to a per-disk load cap, so
// the highest-numbered disks see almost no traffic and sink to low speed.
// Every epoch the ranking is refreshed from observed counts and files whose
// disk changed are migrated.
type PDC struct {
	cfg        PDCConfig
	migrations int

	keys   fileKeys // reused popularity ranking
	target []int    // reused layout: disk per file slot
}

// NewPDC builds a PDC policy.
func NewPDC(cfg PDCConfig) *PDC {
	cfg.setDefaults()
	return &PDC{cfg: cfg}
}

// Name implements array.Policy.
func (p *PDC) Name() string { return "pdc" }

// MigrationsRequested returns the number of epoch migrations PDC issued.
func (p *PDC) MigrationsRequested() int { return p.migrations }

// layout computes the concentrated placement, indexed by file slot, for
// files ranked by descending popularity. PDC is capacity-constrained: each
// disk receives an equal byte share of the dataset, filled in popularity
// order, so disk 0 holds the hottest 1/n of the bytes (and with a skewed
// distribution, most of the request mass). A load cap additionally spills
// traffic to the next disk when one disk's expected service demand would
// saturate it (the heavy-workload guard).
func (p *PDC) layout(ctx *array.Context, ranked []fileKey) []int {
	files := ctx.Files()
	params := ctx.DiskParams()
	n := ctx.NumDisks()
	var totalMB float64
	for _, k := range ranked {
		totalMB += files[k.slot].SizeMB
	}
	byteBudget := totalMB / float64(n)
	loadCap := p.cfg.LoadFraction
	if len(p.target) != len(files) {
		p.target = make([]int, len(files))
	}
	disk := 0
	var usedMB, usedLoad float64
	for _, k := range ranked {
		f := files[k.slot]
		svc := params.ServiceTime(f.SizeMB, diskmodel.High)
		load := f.AccessRate * svc
		if disk < n-1 && usedMB > 0 &&
			(usedMB+f.SizeMB > byteBudget || usedLoad+load > loadCap) {
			disk++
			usedMB, usedLoad = 0, 0
		}
		p.target[k.slot] = disk
		usedMB += f.SizeMB
		usedLoad += load
	}
	return p.target
}

// Init places popularity-sorted files concentrated on the first disks. No
// request has been seen yet, so the ranking is by static access rate.
func (p *PDC) Init(ctx *array.Context) error {
	layout := p.layout(ctx, p.keys.rank(ctx))
	for slot, f := range ctx.Files() {
		if err := ctx.SetPlacement(f.ID, layout[slot]); err != nil {
			return err
		}
	}
	h := p.cfg.IdleThreshold
	if h <= 0 {
		h = 30
	}
	for d := 0; d < ctx.NumDisks(); d++ {
		ctx.SetIdleTimeout(d, h)
	}
	return nil
}

// TargetDisk serves from the placement disk, spinning it up when the queue
// indicates sustained demand.
func (p *PDC) TargetDisk(ctx *array.Context, fileID int) int {
	d := ctx.Placement(fileID)
	if ctx.DiskSpeed(d) == diskmodel.Low && ctx.DiskQueueLen(d)+1 >= p.cfg.SpinUpQueue {
		ctx.SetDecisionCause("queue-depth")
		ctx.RequestTransition(d, diskmodel.High)
	}
	return d
}

// OnRequestComplete implements array.Policy.
func (p *PDC) OnRequestComplete(*array.Context, int, int) {}

// OnEpoch refreshes the popularity ranking from observed counts and
// migrates files whose concentrated position changed.
func (p *PDC) OnEpoch(ctx *array.Context) {
	// Observed counts rank first; the static rate orders files unseen this
	// epoch, so quiet epochs do not randomize the tail.
	ranked := p.keys.rank(ctx)
	target := p.layout(ctx, ranked)
	moved := 0
	for _, k := range ranked {
		if moved >= p.cfg.MaxMigrationsPerEpoch {
			break
		}
		want := target[k.slot]
		if want != ctx.Placement(k.id) && !ctx.Migrating(k.id) {
			ctx.SetDecisionCause("popularity")
			if ctx.Migrate(k.id, want) {
				p.migrations++
				moved++
			}
		}
	}
}

// OnIdleTimeout drops idle disks to low speed.
func (p *PDC) OnIdleTimeout(ctx *array.Context, d int) {
	if ctx.DiskSpeed(d) == diskmodel.High {
		ctx.RequestTransition(d, diskmodel.Low)
	}
}

var _ array.Policy = (*PDC)(nil)
