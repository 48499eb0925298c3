package policy

import (
	"cmp"
	"slices"

	"repro/internal/array"
	"repro/internal/diskmodel"
	"repro/internal/workload"
)

// READConfig parameterizes the READ policy (paper Figure 6).
type READConfig struct {
	// MaxTransitionsPerDay is S: the per-disk daily speed-transition cap
	// (paper evaluation: 40).
	MaxTransitionsPerDay int
	// InitialIdleThreshold is H in seconds. Zero picks 2× the drive's
	// break-even idle time.
	InitialIdleThreshold float64
	// Theta overrides the initial skew parameter θ; zero estimates it
	// from the file set's access rates.
	Theta float64
	// MaxMigrationsPerEpoch bounds migration churn per epoch. Zero means
	// 256; a negative value disables epoch migration entirely (ablation).
	MaxMigrationsPerEpoch int
	// MaxIdleThreshold caps the adaptive doubling of H. Default 4 hours.
	MaxIdleThreshold float64
	// DisableAdaptiveThreshold turns off Figure 6's steps 20-24 (the
	// doubling of H under transition-budget pressure). Ablation only.
	DisableAdaptiveThreshold bool
}

func (c *READConfig) setDefaults() {
	if c.MaxTransitionsPerDay <= 0 {
		c.MaxTransitionsPerDay = 40
	}
	if c.MaxMigrationsPerEpoch == 0 {
		c.MaxMigrationsPerEpoch = 256
	}
	if c.MaxIdleThreshold <= 0 {
		c.MaxIdleThreshold = 4 * 3600
	}
}

// READ implements Reliability and Energy Aware Distribution (paper §4):
//
//  1. Estimate the workload skew θ and split files into popular/unpopular
//     sets (Eq. 4).
//  2. Size a hot zone (high-speed disks) and cold zone (low-speed disks)
//     from the load ratio γ (Eq. 5) and place popular files round-robin on
//     the hot zone, unpopular files round-robin on the cold zone.
//  3. Each epoch, re-rank files by observed accesses, re-derive θ, migrate
//     reclassified files between the (fixed) zones, and double any disk's
//     idleness threshold H once its transition count reaches half its
//     budget — keeping every disk under the daily transition rate cap S.
type READ struct {
	cfg READConfig

	theta    float64
	hotCount int
	// popular is each file's Eq. 4 class, indexed by file slot (the file's
	// index in Context.Files()); next is the buffer an epoch reclassifies
	// into before the two swap.
	popular []bool
	next    []bool
	// restored holds the popular file IDs LoadState read, until the next
	// epoch maps them to slots (LoadState has no Context).
	restored []int
	rrHot    int
	rrCold   int

	keys fileKeys // reused popularity ranking

	migrations int
}

// NewREAD builds a READ policy.
func NewREAD(cfg READConfig) *READ {
	cfg.setDefaults()
	return &READ{cfg: cfg}
}

// Name implements array.Policy.
func (r *READ) Name() string { return "read" }

// HotDisks returns the current hot-zone size.
func (r *READ) HotDisks() int { return r.hotCount }

// Theta returns the current skew estimate.
func (r *READ) Theta() float64 { return r.theta }

// MigrationsRequested returns the number of epoch migrations READ issued.
func (r *READ) MigrationsRequested() int { return r.migrations }

// popularCount returns how many of n popularity-ordered files Eq. 4 puts in
// the popular class.
func popularCount(theta float64, n int) int {
	np, _, err := workload.PopularSplit(theta, n)
	if err != nil {
		np = n / 2
		if np == 0 {
			np = 1
		}
	}
	return min(np, n)
}

// zoneSize derives the hot-disk count from the class loads (Eq. 5 +
// Figure 6 step 3).
func zoneSize(popLoad, unpopLoad float64, n int) int {
	gamma, err := workload.GammaRatio(popLoad, unpopLoad)
	if err != nil {
		gamma = 1
	}
	hd, err := workload.HotDiskCount(gamma, n)
	if err != nil {
		hd = n / 2
		if hd < 1 {
			hd = 1
		}
	}
	return hd
}

// Init runs Figure 6 steps 1-7.
func (r *READ) Init(ctx *array.Context) error {
	files := ctx.Files()
	// Original round: popularity proxied by size (smallest = hottest), ties
	// broken by ID.
	keys := r.keys.load(ctx)
	slices.SortFunc(keys, func(a, b fileKey) int {
		if sa, sb := files[a.slot].SizeMB, files[b.slot].SizeMB; sa != sb {
			return cmp.Compare(sa, sb)
		}
		return cmp.Compare(a.id, b.id)
	})

	r.theta = r.cfg.Theta
	if r.theta <= 0 || r.theta >= 1 {
		r.theta = estimateTheta(files)
	}
	// Split into popular/unpopular per Eq. 4 and size the zones from the
	// per-class loads (Eq. 5), using the paper's load definition hi = λi·si
	// (§4: service time proportional to size). The byte-weighted load keeps
	// the hot zone compact — popular web objects are small, so a small
	// high-speed zone absorbs them and the cold majority of disks stays
	// parked at low speed; this is where READ's energy savings come from.
	np := popularCount(r.theta, len(keys))
	r.popular = make([]bool, len(files))
	var popLoad, unpopLoad float64
	for i, k := range keys {
		if i < np {
			r.popular[k.slot] = true
			popLoad += files[k.slot].Load()
		} else {
			unpopLoad += files[k.slot].Load()
		}
	}
	n := ctx.NumDisks()
	r.hotCount = zoneSize(popLoad, unpopLoad, n)

	// Step 4: hot zone high speed, cold zone low speed (free at init).
	for d := 0; d < n; d++ {
		if d < r.hotCount {
			ctx.RequestTransition(d, diskmodel.High)
		} else {
			ctx.RequestTransition(d, diskmodel.Low)
		}
	}

	// Steps 5-7: round-robin placement per zone.
	if err := placeRoundRobin(ctx, keys[:np], diskRange(0, r.hotCount)); err != nil {
		return err
	}
	if err := placeRoundRobin(ctx, keys[np:], diskRange(r.hotCount, n)); err != nil {
		return err
	}

	h := r.cfg.InitialIdleThreshold
	if h <= 0 {
		h = 2 * ctx.DiskParams().BreakEvenIdle()
	}
	for d := 0; d < n; d++ {
		ctx.SetIdleTimeout(d, h)
	}
	return nil
}

// budget returns the transition allowance accumulated so far. S is a daily
// RATE cap, so the allowance accrues fractionally with elapsed time (with a
// small floor so the very start of a run is not frozen); a count-per-day
// interpretation would let a short run burn a full day's budget in minutes.
func (r *READ) budget(ctx *array.Context) int {
	accrued := int(float64(r.cfg.MaxTransitionsPerDay)*ctx.Now()/86400) + 1
	if accrued < 2 {
		return 2
	}
	return accrued
}

// TargetDisk serves from the placement disk; a hot-zone disk that idled down
// is spun back up (this transition is demanded by correctness — hot files
// must be served fast — and is what the S cap protects against).
func (r *READ) TargetDisk(ctx *array.Context, fileID int) int {
	d := ctx.Placement(fileID)
	if d < r.hotCount && ctx.DiskSpeed(d) == diskmodel.Low {
		ctx.SetDecisionCause("demand")
		ctx.RequestTransition(d, diskmodel.High)
	}
	return d
}

// OnRequestComplete implements array.Policy.
func (r *READ) OnRequestComplete(*array.Context, int, int) {}

// OnIdleTimeout lets a hot-zone disk sink to low speed only while its
// transition budget (with room for the return trip) is intact.
func (r *READ) OnIdleTimeout(ctx *array.Context, d int) {
	if d >= r.hotCount {
		return // cold zone is already low
	}
	if ctx.DiskSpeed(d) != diskmodel.High {
		return
	}
	if ctx.DiskTransitions(d)+2 > r.budget(ctx) {
		return // budget exhausted: stay at high speed
	}
	ctx.RequestTransition(d, diskmodel.Low)
}

// OnEpoch runs Figure 6 steps 9-24.
func (r *READ) OnEpoch(ctx *array.Context) {
	keys, newPopular := r.reclassify(ctx)
	n := ctx.NumDisks()

	// Steps 12-19: migrate reclassified files, round-robin per zone.
	moved := 0
	for _, k := range keys {
		if moved >= r.cfg.MaxMigrationsPerEpoch {
			break
		}
		wasPopular := r.popular[k.slot]
		isPopular := newPopular[k.slot]
		cur := ctx.Placement(k.id)
		switch {
		case wasPopular && !isPopular && cur < r.hotCount:
			target := r.hotCount + r.rrCold%(n-r.hotCount)
			r.rrCold++
			ctx.SetDecisionCause("popularity")
			if ctx.Migrate(k.id, target) {
				r.migrations++
				moved++
			}
		case !wasPopular && isPopular && cur >= r.hotCount:
			target := r.rrHot % r.hotCount
			r.rrHot++
			ctx.SetDecisionCause("popularity")
			if ctx.Migrate(k.id, target) {
				r.migrations++
				moved++
			}
		}
	}
	r.popular, r.next = newPopular, r.popular

	if !r.cfg.DisableAdaptiveThreshold {
		r.adaptThresholds(ctx)
	}
}

// reclassify runs Figure 6 steps 10-11: it re-ranks the files by accesses
// during the current epoch and re-categorizes them with a refreshed θ. It
// returns the ranking and the new slot-indexed popular set, which the
// caller compares against r.popular and then adopts.
func (r *READ) reclassify(ctx *array.Context) ([]fileKey, []bool) {
	keys := r.keys.rank(ctx)
	if r.popular == nil {
		r.popular = r.restoredPopular(keys)
	}

	// Step 11: re-calculate θ. A sparse epoch window (fewer observations
	// than files) cannot support a skew estimate — zero-count files would
	// masquerade as extreme skew — so θ is only refreshed from a reasonably
	// dense window.
	countVec := make([]int, len(keys))
	total := 0
	for i, k := range keys {
		countVec[i] = k.count
		total += k.count
	}
	if total >= len(keys) {
		if th, err := workload.MeasureTheta(countVec); err == nil && th > 0 && th < 1 {
			r.theta = th
		}
	}
	// Re-categorize with the refreshed θ. Zone sizes stay as Figure 6
	// step 3 set them: the paper's epoch loop (steps 8-25) migrates files
	// between the zones but never moves the hot/cold boundary — and an
	// epoch window cannot support Eq. 5 anyway, because the unpopular
	// class's observed load is near zero by construction (they are
	// unpopular precisely because the window barely touched them).
	if len(r.next) != len(keys) {
		r.next = make([]bool, len(keys))
	}
	np := popularCount(r.theta, len(keys))
	for i, k := range keys {
		r.next[k.slot] = i < np
	}
	return keys, r.next
}

// restoredPopular maps the popular IDs LoadState read onto file slots.
func (r *READ) restoredPopular(keys []fileKey) []bool {
	popular := make([]bool, len(keys))
	for _, k := range keys {
		_, popular[k.slot] = slices.BinarySearch(r.restored, k.id)
	}
	r.restored = nil
	return popular
}

// adaptThresholds runs Figure 6 steps 20-24: once a disk has spent half
// its transition budget, its idleness threshold H doubles (up to the cap)
// to slow future transitions.
func (r *READ) adaptThresholds(ctx *array.Context) {
	for d := 0; d < ctx.NumDisks(); d++ {
		if 2*ctx.DiskTransitions(d) >= r.budget(ctx) {
			h := ctx.IdleTimeout(d) * 2
			if h > r.cfg.MaxIdleThreshold {
				h = r.cfg.MaxIdleThreshold
			}
			ctx.SetIdleTimeout(d, h)
		}
	}
}

var _ array.Policy = (*READ)(nil)
