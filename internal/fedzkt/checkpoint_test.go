package fedzkt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestCheckpointRoundTrip restores a distilled server bit-exactly. Its
// devices register two ways — virgin (nil initial state) and with the
// seeded eager build a virgin slot stands for — and both must checkpoint
// the same bytes.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 3
	seeded := func(arch string, id int) nn.StateDict {
		return nn.CaptureState(model.MustBuild(arch, tinyShape(), 4, tensor.NewRand(cfg.Seed+uint64(1000+id))))
	}
	virgin := func(string, int) nn.StateDict { return nil }
	var blobs [][]byte
	for _, initial := range []func(arch string, id int) nn.StateDict{virgin, seeded} {
		srv, err := NewServer(cfg, tinyShape(), 4)
		if err != nil {
			t.Fatal(err)
		}
		for id, arch := range []string{"mlp", "lenet-s"} {
			if _, err := srv.Register(arch, initial(arch, id)); err != nil {
				t.Fatal(err)
			}
		}
		// Move the server away from its initialisation so the checkpoint
		// is nontrivial.
		if _, err := srv.Distill(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		blob, err := srv.CheckpointBytes()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)

		// Restore into a fresh, empty server (same config → same shapes).
		restored, err := NewServer(cfg, tinyShape(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
			t.Fatal(err)
		}
		if restored.NumDevices() != 2 {
			t.Fatalf("restored %d devices, want 2", restored.NumDevices())
		}
		for _, pair := range []struct {
			name string
			a, b nn.StateDict
		}{
			{"global", nn.CaptureState(srv.Global()), nn.CaptureState(restored.Global())},
			{"generator", nn.CaptureState(srv.Generator()), nn.CaptureState(restored.Generator())},
		} {
			for name, want := range pair.a {
				if tensor.MaxAbsDiff(pair.b[name], want) != 0 {
					t.Fatalf("%s state %q not restored bit-exactly", pair.name, name)
				}
			}
		}
		for id := 0; id < 2; id++ {
			a, _ := srv.ReplicaState(id)
			b, _ := restored.ReplicaState(id)
			for name, want := range a {
				if tensor.MaxAbsDiff(b[name], want) != 0 {
					t.Fatalf("replica %d state %q not restored", id, name)
				}
			}
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("virgin registration checkpoints different bytes from the seeded eager build")
	}
}

func TestCheckpointArchMismatch(t *testing.T) {
	cfg := tinyConfig()
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Register("cnn", nil); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadCheckpoint(bytes.NewReader(blob)); err == nil {
		t.Fatal("want error for architecture mismatch")
	}
}

func TestCheckpointCorrupt(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadCheckpoint(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Fatal("want error for corrupt checkpoint")
	}
}

// TestCheckpointVersioning: the leading magic + format-version byte turns
// foreign blobs and version mismatches into immediate, descriptive errors
// instead of obscure mid-decode gob failures.
func TestCheckpointVersioning(t *testing.T) {
	srv, err := NewServer(tinyConfig(), tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	// A future (or past) format version is named in the error.
	bumped := bytes.Clone(blob)
	bumped[4] = 99
	err = srv.LoadCheckpoint(bytes.NewReader(bumped))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want unsupported-version error naming version 99, got %v", err)
	}

	// A pre-versioned (or foreign) blob fails on the magic, not in gob.
	err = srv.LoadCheckpoint(bytes.NewReader(append([]byte("gobXstuff"), blob...)))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}

	// A truncated header is reported as such.
	if err := srv.LoadCheckpoint(bytes.NewReader(blob[:3])); err == nil {
		t.Fatal("want error for truncated header")
	}

	// A coordinator checkpoint is not a server checkpoint: the distinct
	// magics keep the two blob kinds from being confused.
	ds := tinyDataset(77)
	shards := [][]int{{0, 1, 2}, {3, 4, 5}}
	cfg := tinyConfig()
	cfg.Rounds = 1
	co, err := New(cfg, ds, []string{"mlp"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	var coBlob bytes.Buffer
	if err := co.SaveCheckpoint(&coBlob); err != nil {
		t.Fatal(err)
	}
	err = srv.LoadCheckpoint(bytes.NewReader(coBlob.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "server checkpoint") {
		t.Fatalf("want server-checkpoint magic error, got %v", err)
	}
	err = co.LoadCheckpoint(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "coordinator checkpoint") {
		t.Fatalf("want coordinator-checkpoint magic error, got %v", err)
	}
}

// TestCheckpointResumeContinuesTraining: a restored server can keep
// distilling — the checkpoint is operational state, not just weights.
func TestCheckpointResumeContinuesTraining(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	blob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Distill(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	for _, p := range restored.Global().Params() {
		if !p.Value().IsFinite() {
			t.Fatal("restored server produced non-finite parameters")
		}
	}
}
