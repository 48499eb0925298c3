package array_test

// Tests pinning the file-slot remap and the checkpoint envelope bytes. They
// live in the external test package because they drive the shipped policies
// (internal/policy imports internal/array).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/workload"
)

func slotTrace(t *testing.T) *workload.Trace {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.NumFiles = 60
	cfg.NumRequests = 3000
	cfg.MeanInterarrival = 0.01
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// relabel maps every file ID through f, which must be strictly increasing
// so ID tie-breaks keep their order.
func relabel(tr *workload.Trace, f func(int) int) *workload.Trace {
	out := &workload.Trace{
		Files:    tr.Files.Clone(),
		Requests: append([]workload.Request(nil), tr.Requests...),
	}
	for i := range out.Files {
		out.Files[i].ID = f(out.Files[i].ID)
	}
	for i := range out.Requests {
		out.Requests[i].FileID = f(out.Requests[i].FileID)
	}
	return out
}

// TestSparseFileIDsMatchDense relabels a trace's file IDs with an
// order-preserving sparse map that includes a negative ID. Every policy must
// produce the same Result as on the dense trace: file IDs only name files,
// and the simulator's ID→slot table must not change what happens.
func TestSparseFileIDsMatchDense(t *testing.T) {
	dense := slotTrace(t)
	sparse := relabel(dense, func(id int) int { return 1000*id - 3 })
	if sparse.Files[0].ID >= 0 {
		t.Fatalf("relabelled trace has no negative ID (first %d)", sparse.Files[0].ID)
	}
	run := func(kind experiment.PolicyKind, tr *workload.Trace) *array.Result {
		t.Helper()
		pol, err := experiment.NewPolicy(kind)
		if err != nil {
			t.Fatal(err)
		}
		res, err := array.Run(array.Config{Disks: 6, Trace: tr, Policy: pol, EpochSeconds: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		return res
	}
	for _, kind := range experiment.AllPolicyKinds() {
		t.Run(string(kind), func(t *testing.T) {
			want, got := run(kind, dense), run(kind, sparse)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("sparse IDs changed the result:\ndense  %+v\nsparse %+v", want, got)
			}
		})
	}
}

// goldenCheckpointSHA256 is the digest of the middle checkpoint envelope of
// TestCheckpointEnvelopeGolden's run. It changes only when the bytes a
// checkpoint writes change: the event-kind names, the Place/Counts/Migrating
// encoding, or the simulation itself.
const goldenCheckpointSHA256 = "7799af8f13bc6217c0ac54972ae076fe74dc8a6b06a5df6b639ba849114590c8"

// TestCheckpointEnvelopeGolden pins the exact bytes of a mid-run checkpoint
// for a faults + RAID-5 + READ run. Resume ≡ uninterrupted holds whatever
// the encoding is; this catches an encoding that silently drifts, which
// would break resuming snapshots written by an earlier build.
func TestCheckpointEnvelopeGolden(t *testing.T) {
	tr := slotTrace(t)
	var snaps [][]byte
	cfg := array.Config{
		Disks:          6,
		Trace:          tr,
		Policy:         policy.NewREAD(policy.READConfig{}),
		EpochSeconds:   1.5,
		SampleInterval: 2,
		Spares:         1,
		RAID:           array.RAIDConfig{Level: array.RAID5},
		Faults: &faults.Config{
			Enabled:              true,
			Seed:                 11,
			Acceleration:         2e5,
			CheckIntervalSeconds: 0.5,
			Scripted:             []faults.ScriptedEvent{{Disk: 2, At: 5}},
			LSERatePerHour:       2e-3,
			ScrubIOMB:            4,
			RebuildTime:          &reliability.Weibull{Shape: 1, ScaleHours: 12},
		},
		Checkpoint: &array.CheckpointSpec{
			EverySimSeconds: 0.9,
			Tool:            "array-test",
			ConfigDigest:    "golden",
			Sink: func(data []byte) error {
				snaps = append(snaps, append([]byte(nil), data...))
				return nil
			},
		},
	}
	if _, err := array.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d snapshots", len(snaps))
	}
	snap := snaps[len(snaps)/2]

	// Guard against the run drifting into one that no longer exercises the
	// encodings the digest is meant to pin.
	env, err := checkpoint.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Place  map[string]int `json:"place"`
		Counts map[string]int `json:"counts"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
		Faults *struct {
			RAID json.RawMessage `json:"raid"`
		} `json:"faults"`
	}
	if err := json.Unmarshal(env.State, &st); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, e := range st.Events {
		kinds[e.Kind] = true
	}
	if len(st.Place) != len(tr.Files) || len(st.Counts) == 0 || len(kinds) < 4 ||
		st.Faults == nil || st.Faults.RAID == nil {
		t.Fatalf("snapshot exercises too little: %d placed, %d counted, event kinds %v",
			len(st.Place), len(st.Counts), kinds)
	}

	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != goldenCheckpointSHA256 {
		t.Fatalf("checkpoint envelope digest %s, want %s (snapshot %d of %d, kinds %v)",
			got, goldenCheckpointSHA256, len(snaps)/2+1, len(snaps), kinds)
	}
}
