package experiment

import (
	"strings"
	"testing"

	"repro/internal/runstore"
)

func manifestSweep(t *testing.T, seed int64) (*runstore.Manifest, SweepConfig) {
	t.Helper()
	cfg := DefaultSweepConfig()
	cfg.DiskCounts = []int{4, 6}
	cfg.Policies = []PolicyKind{KindREAD, KindMAID}
	cfg.Scale = 0.002
	cfg.Workload.Seed = seed
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SweepManifest("tiny", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// Two sweeps of the identical configuration must agree bit-for-bit: same
// config digest, and zero delta on every metric under zero tolerance — the
// determinism gate `arrayreport diff` applies in CI.
func TestSweepManifestDeterminism(t *testing.T) {
	a, _ := manifestSweep(t, 1)
	b, _ := manifestSweep(t, 1)
	if a.ConfigDigest != b.ConfigDigest {
		t.Fatalf("same config, different digests:\n%s\n%s", a.ConfigDigest, b.ConfigDigest)
	}
	deltas := runstore.Diff(a.Summary, b.Summary, runstore.Tolerances{})
	if n := runstore.Breaches(deltas); n != 0 {
		t.Fatalf("same-seed sweeps differ in %d metric(s): %+v", n, deltas)
	}
	for _, d := range deltas {
		if d.Rel != 0 {
			t.Fatalf("metric %s has nonzero delta %g between identical runs", d.Metric, d.Rel)
		}
	}
}

// A perturbed configuration (different workload seed) must change the digest
// and breach the zero-tolerance diff — a regression cannot hide behind an
// unchanged run name.
func TestSweepManifestPerturbedSeedBreaches(t *testing.T) {
	a, _ := manifestSweep(t, 1)
	b, _ := manifestSweep(t, 2)
	if a.ConfigDigest == b.ConfigDigest {
		t.Fatal("different seeds produced the same config digest")
	}
	deltas := runstore.Diff(a.Summary, b.Summary, runstore.Tolerances{})
	if runstore.Breaches(deltas) == 0 {
		t.Fatal("perturbed seed produced zero metric deltas")
	}
}

// The manifest's Extra block carries one entry set per sweep cell, named
// cell.<policy>.<disks>.<metric>.
func TestSweepManifestCellMetrics(t *testing.T) {
	m, cfg := manifestSweep(t, 1)
	for _, p := range cfg.Policies {
		for _, n := range []string{"4", "6"} {
			key := "cell." + string(p) + "." + n + ".energy_j"
			v, ok := m.Summary.Extra[key]
			if !ok || v <= 0 {
				t.Errorf("missing or non-positive cell metric %s (%v)", key, v)
			}
		}
	}
	if m.Policy != "read+maid" {
		t.Errorf("policy list = %q", m.Policy)
	}
	if m.Seed != 1 {
		t.Errorf("seed = %d", m.Seed)
	}
	if !strings.Contains(m.Workload, "scale 0.002") {
		t.Errorf("workload description = %q", m.Workload)
	}
}

// Execution knobs must not leak into the digest: parallelism and progress
// sinks change neither results nor identity.
func TestSweepManifestDigestIgnoresExecutionKnobs(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.DiskCounts = []int{4}
	cfg.Policies = []PolicyKind{KindREAD}
	cfg.Scale = 0.002
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SweepManifest("knobs", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Parallelism = 1
	b, err := SweepManifest("knobs", cfg2, res)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigDigest != b.ConfigDigest {
		t.Fatal("parallelism changed the config digest")
	}
}

// TestDefaultConditionManifestIDs pins the run-store IDs of the four default
// experiments conditions at the CLI's default scale. The ID embeds the config
// digest that -resume matches on, so a refactor that moves it silently
// breaks resuming an existing store; arrayreport check only notes drift.
func TestDefaultConditionManifestIDs(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  SweepConfig
		want string
	}{
		{"fig7-light", DefaultSweepConfig(), "fig7-light-5962693de80a"},
		{"faults-light", DefaultFaultSweepConfig(), "faults-light-628750c6cf8c"},
		{"raidloss-light", DefaultRAIDLossSweepConfig(), "raidloss-light-c9c01eae6863"},
	} {
		if id, err := SweepManifestID(c.name, c.cfg); err != nil || id != c.want {
			t.Errorf("SweepManifestID(%s) = %q, %v; want %q", c.name, id, err, c.want)
		}
	}
	if id, err := FleetManifestID("fleet-light", DefaultFleetSweepConfig()); err != nil || id != "fleet-light-e85aeb64bb24" {
		t.Errorf("FleetManifestID(fleet-light) = %q, %v; want fleet-light-e85aeb64bb24", id, err)
	}
}
