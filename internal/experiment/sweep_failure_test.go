package experiment

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runstore"
)

// withCellHook installs testCellHook for one test and restores it after.
func withCellHook(t *testing.T, hook func(key string)) {
	t.Helper()
	testCellHook = hook
	t.Cleanup(func() { testCellHook = nil })
}

// gridView is one finished cell, reduced to what the failure tests inspect.
type gridView struct {
	key      string
	status   CellStatus
	attempts int
	err      string
	done     bool // the cell has a result
}

// gridInput is one sweep grid under test — array or fleet — run with the
// given cell attempts and a millisecond retry backoff.
type gridInput struct {
	name   string
	target string // the key of the cell the hook breaks
	run    func(t *testing.T, attempts int) ([]gridView, *runstore.Manifest, func(io.Writer) error, error)
}

func gridInputs() []gridInput {
	return []gridInput{
		{"array", "maid.4", func(t *testing.T, attempts int) ([]gridView, *runstore.Manifest, func(io.Writer) error, error) {
			cfg := tinySweep()
			cfg.CellAttempts = attempts
			cfg.RetryBaseDelay = time.Millisecond
			res, runErr := RunSweep(cfg)
			if res == nil {
				t.Fatalf("want the partial sweep result alongside the error, got %v", runErr)
			}
			var views []gridView
			for _, c := range res.Cells {
				views = append(views, gridView{c.Key(), c.Status, c.Attempts, c.Err, c.Result != nil})
			}
			m, err := SweepManifest("failing", cfg, res)
			if err != nil {
				t.Fatal(err)
			}
			render := func(w io.Writer) error {
				if err := RenderSweepTable(w, res, MetricEnergy, "partial"); err != nil {
					return err
				}
				return WriteSweepCSV(w, res)
			}
			return views, m, render, runErr
		}},
		{"fleet", "fleet.read.least-loaded.2", func(t *testing.T, attempts int) ([]gridView, *runstore.Manifest, func(io.Writer) error, error) {
			cfg := tinyFleetConfig()
			cfg.CellAttempts = attempts
			cfg.RetryBaseDelay = time.Millisecond
			res, runErr := RunFleetSweep(cfg)
			if res == nil {
				t.Fatalf("want the partial sweep result alongside the error, got %v", runErr)
			}
			var views []gridView
			for _, c := range res.Cells {
				views = append(views, gridView{c.Key(), c.Status, c.Attempts, c.Err, c.Result != nil})
			}
			m, err := FleetManifest("failing", cfg, res)
			if err != nil {
				t.Fatal(err)
			}
			render := func(w io.Writer) error {
				RenderFleetSummary(w, res, "partial")
				return WriteFleetCSV(w, res)
			}
			return views, m, render, runErr
		}},
	}
}

// TestSweepSurvivesPanickingCell: one cell panics on every attempt, every
// other cell completes, the failure lands in the manifest, and only the
// broken cell is failed — for array and fleet grids alike.
func TestSweepSurvivesPanickingCell(t *testing.T) {
	for _, in := range gridInputs() {
		t.Run(in.name, func(t *testing.T) {
			withCellHook(t, func(key string) {
				if key == in.target {
					panic("injected cell panic")
				}
			})
			cells, m, render, err := in.run(t, 2)
			if err == nil {
				t.Fatal("want a failure-summary error")
			}
			if !strings.Contains(err.Error(), "1 of") {
				t.Fatalf("error should count failed cells, got: %v", err)
			}
			found := false
			for _, c := range cells {
				if c.key != in.target {
					if c.status != CellOK || !c.done || c.attempts != 1 {
						t.Fatalf("healthy cell damaged by the panicking one: %+v", c)
					}
					continue
				}
				found = true
				if c.done || c.status != CellFailed || c.attempts != 2 {
					t.Fatalf("failed cell = %+v", c)
				}
				if !strings.Contains(c.err, "injected cell panic") {
					t.Fatalf("cell error lost the panic message: %q", c.err)
				}
			}
			if !found {
				t.Fatalf("cell %s not in the grid", in.target)
			}

			// The failure is recorded in the manifest: overall status, a
			// per-cell marker instead of metrics, and attempts for the
			// post-mortem.
			prefix := "cell." + in.target + "."
			if m.Status != string(CellFailed) {
				t.Fatalf("manifest status = %q, want failed", m.Status)
			}
			if m.Summary.Extra[prefix+"failed"] != 1 {
				t.Fatal("manifest lacks the failed-cell marker")
			}
			if _, ok := m.Summary.Extra[prefix+"energy_j"]; ok {
				t.Fatal("failed cell contributed metrics")
			}
			if m.Summary.Extra[prefix+"attempts"] != 2 {
				t.Fatalf("attempts marker = %v, want 2", m.Summary.Extra[prefix+"attempts"])
			}

			// Rendering a partial sweep must not panic either.
			if err := render(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSweepRetriesTransientFailure makes one cell panic only on its first
// attempt: the retry succeeds, the cell (and the manifest) records
// "retried", and the sweep as a whole succeeds — for array and fleet grids.
func TestSweepRetriesTransientFailure(t *testing.T) {
	for _, in := range gridInputs() {
		t.Run(in.name, func(t *testing.T) {
			var mu sync.Mutex
			tripped := false
			withCellHook(t, func(key string) {
				if key == in.target {
					mu.Lock()
					first := !tripped
					tripped = true
					mu.Unlock()
					if first {
						panic("transient fault")
					}
				}
			})
			cells, m, _, err := in.run(t, 3)
			if err != nil {
				t.Fatalf("retried sweep should succeed, got: %v", err)
			}
			for _, c := range cells {
				if c.key == in.target && (c.status != CellRetried || c.attempts != 2 || !c.done) {
					t.Fatalf("retried cell = %+v", c)
				}
			}
			if m.Status != string(CellRetried) {
				t.Fatalf("manifest status = %q, want retried", m.Status)
			}
		})
	}
}

// TestSweepManifestIDIsStable checks the resume-skip ID matches the ID the
// recorded manifest actually gets.
func TestSweepManifestIDIsStable(t *testing.T) {
	cfg := tinySweep()
	id, err := SweepManifestID("cond", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SweepManifest("cond", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != id {
		t.Fatalf("SweepManifestID %q != recorded ID %q", id, m.ID())
	}
	if m.Status != string(CellOK) {
		t.Fatalf("clean sweep status = %q", m.Status)
	}
}
