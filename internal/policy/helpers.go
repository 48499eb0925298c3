// Package policy implements the energy-saving strategies the paper
// evaluates on the two-speed disk-array simulator:
//
//   - READ — the paper's contribution (§4): reliability- and energy-aware
//     distribution with hot/cold zones, epoch migration, and a capped
//     speed-transition budget.
//   - MAID — Colarelli & Grunwald's massive array of idle disks, adapted to
//     two-speed drives as the paper does: cache disks absorb popular data,
//     storage disks drop to low speed when idle.
//   - PDC — Pinheiro & Bianchini's popular data concentration: popularity-
//     sorted placement skews load onto the first disks so the rest idle.
//   - AlwaysOn — the no-power-management baseline.
//   - DRPM — an aggressive per-disk dynamic speed policy used as an
//     ablation for the paper's "is frequent switching worthwhile?" question.
package policy

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/array"
	"repro/internal/workload"
)

// fileKey is one file's popularity sort key: its access count this epoch,
// its static access rate, its ID, and its slot — the file's index in
// Context.Files(), which indexes the policies' per-file tables.
type fileKey struct {
	count int
	rate  float64
	id    int
	slot  int
}

// fileKeys is a policy-owned key slice, refilled each epoch so ranking
// allocates nothing once it has grown to the file count.
type fileKeys []fileKey

// load refills the keys from the context, one per file in slot order.
func (ks *fileKeys) load(ctx *array.Context) []fileKey {
	keys := (*ks)[:0]
	for slot, f := range ctx.Files() {
		keys = append(keys, fileKey{count: ctx.AccessCount(f.ID), rate: f.AccessRate, id: f.ID, slot: slot})
	}
	*ks = keys
	return keys
}

// rank refills the keys and sorts them by popularity (see byPopularity).
func (ks *fileKeys) rank(ctx *array.Context) []fileKey {
	keys := ks.load(ctx)
	slices.SortFunc(keys, byPopularity)
	return keys
}

// byPopularity orders keys most popular first: by access count this epoch,
// then by static access rate, then by ascending ID. File IDs are unique, so
// the order is total and the result does not depend on the sort algorithm.
func byPopularity(a, b fileKey) int {
	if a.count != b.count {
		return cmp.Compare(b.count, a.count)
	}
	if a.rate != b.rate {
		if a.rate > b.rate {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// byLoadDesc returns the files ordered by static load hi = λi·si,
// heaviest first, with ID tie-breaking for determinism.
func byLoadDesc(files workload.FileSet) workload.FileSet {
	out := files.Clone()
	sort.Slice(out, func(i, j int) bool {
		li, lj := out[i].Load(), out[j].Load()
		if li != lj {
			return li > lj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// placeLeastLoaded assigns each file (in the given order) to the disk in
// `disks` with the least accumulated load so far (greedy LPT balancing).
func placeLeastLoaded(ctx *array.Context, files workload.FileSet, disks []int) error {
	load := make(map[int]float64, len(disks))
	for _, f := range files {
		best, bestLoad := disks[0], load[disks[0]]
		for _, d := range disks[1:] {
			if load[d] < bestLoad {
				best, bestLoad = d, load[d]
			}
		}
		if err := ctx.SetPlacement(f.ID, best); err != nil {
			return err
		}
		load[best] += f.Load()
	}
	return nil
}

// placeRoundRobin assigns files (in the given order) cyclically over disks,
// the paper's §4 assignment rule for both zones.
func placeRoundRobin(ctx *array.Context, files []fileKey, disks []int) error {
	for i, f := range files {
		if err := ctx.SetPlacement(f.id, disks[i%len(disks)]); err != nil {
			return err
		}
	}
	return nil
}

// diskRange returns [lo, hi) as a slice of disk indices.
func diskRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for d := lo; d < hi; d++ {
		out = append(out, d)
	}
	return out
}

// estimateTheta derives the workload skew parameter from per-file access
// rates (Init time) by treating rates as expected counts.
func estimateTheta(files workload.FileSet) float64 {
	counts := make([]int, len(files))
	for i, f := range files {
		// Scale to integers; resolution of 1e-6 req/s is ample.
		counts[i] = int(f.AccessRate * 1e6)
	}
	th, err := workload.MeasureTheta(counts)
	if err != nil || th <= 0 {
		return 0.5
	}
	if th >= 1 {
		return 0.999
	}
	return th
}
