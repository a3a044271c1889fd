package fedzkt

import (
	"bytes"
	"context"
	"math"
	"testing"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// TestQuantisedSlotsResidentBytes pins the memory acceptance bar of the
// codec subsystem: int8 replica slots hold at least 4× (and in practice
// close to 8×) fewer resident bytes per device than dense float64 slots,
// and float16 at least 3× fewer.
func TestQuantisedSlotsResidentBytes(t *testing.T) {
	resident := func(name string) int64 {
		cfg := tinyConfig()
		cfg.StateCodec = name
		srv, err := NewServer(cfg, tinyShape(), 4)
		if err != nil {
			t.Fatal(err)
		}
		// Explicit initial states, as the coordinator registers them: a
		// virgin (nil-state) slot holds no bytes until first touched.
		for i := 0; i < 20; i++ {
			arch := []string{"mlp", "lenet-s"}[i%2]
			sd := nn.CaptureState(model.MustBuild(arch, tinyShape(), 4, tensor.NewRand(uint64(i))))
			if _, err := srv.RegisterSized(arch, sd, 10+i); err != nil {
				t.Fatal(err)
			}
		}
		return srv.ResidentStateBytes()
	}
	dense := resident("")
	if dense == 0 {
		t.Fatal("dense server reports zero resident state bytes")
	}
	if i8 := resident("int8"); dense < 4*i8 {
		t.Fatalf("int8 slots hold %d bytes vs dense %d: want ≥4× reduction", i8, dense)
	}
	if f16 := resident("float16"); dense < 3*f16 {
		t.Fatalf("float16 slots hold %d bytes vs dense %d: want ≥3× reduction", f16, dense)
	}
}

// TestQuantisedAbsorbRoundTrip: absorbing an upload into a quantised slot
// and reading it back reproduces the upload within the codec's error
// bound — per tensor, half a quantisation step for int8.
func TestQuantisedAbsorbRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.StateCodec = "int8"
	srv := registerN(t, cfg, 2, "mlp")
	up := nn.CaptureState(model.MustBuild("mlp", tinyShape(), 4, tensor.NewRand(99))).Clone()
	if err := srv.Absorb(1, up); err != nil {
		t.Fatal(err)
	}
	got, err := srv.ReplicaState(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range up {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range w.Data() {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		bound := (hi-lo)/510*(1+1e-9) + 1e-300
		if diff := tensor.MaxAbsDiff(got[name], w); diff > bound {
			t.Fatalf("state %q drifted by %g (> step/2 %g) through the int8 slot", name, diff, bound)
		}
	}
	// The payload view is the encoded slot itself and decodes to the same
	// values.
	payload, numel, err := srv.ReplicaPayload(1)
	if err != nil {
		t.Fatal(err)
	}
	if numel != up.Numel() {
		t.Fatalf("payload numel %d, want %d", numel, up.Numel())
	}
	dec, err := codec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for name := range up {
		if tensor.MaxAbsDiff(dec[name], got[name]) != 0 {
			t.Fatalf("payload and ReplicaState disagree on %q", name)
		}
	}
}

// TestQuantisedAbsorbRejectsDriftedArchitecture: quantised installs keep
// the strict layout validation nn.LoadState provides.
func TestQuantisedAbsorbRejectsDriftedArchitecture(t *testing.T) {
	cfg := tinyConfig()
	cfg.StateCodec = "int8"
	srv := registerN(t, cfg, 1, "mlp")
	other := nn.CaptureState(model.MustBuild("cnn", tinyShape(), 4, tensor.NewRand(7)))
	if err := srv.Absorb(0, other); err == nil {
		t.Fatal("want error absorbing a cnn state into an mlp slot")
	}
	c, _ := codec.Get("int8")
	payload, err := codec.Encode(c, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AbsorbPayload(0, payload); err == nil {
		t.Fatal("want error absorbing a cnn payload into an mlp slot")
	}
	if err := srv.AbsorbPayload(0, []byte("garbage")); err == nil {
		t.Fatal("want error absorbing a non-container payload")
	}
}

// TestQuantisedReadOnlyPhasesCauseNoDrift: checking a quantised replica
// out for a read-only phase (teacher forwards, evaluation) and releasing
// it must leave the slot bytes untouched — only writable phases requantise.
func TestQuantisedReadOnlyPhasesCauseNoDrift(t *testing.T) {
	cfg := tinyConfig()
	cfg.StateCodec = "int8"
	cfg.TeachersPerIter = 2
	srv := registerN(t, cfg, 4, "mlp")
	before := make([][]byte, 4)
	for id := range before {
		b, _, err := srv.ReplicaPayload(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = b
	}
	// A read-only checkout of every slot, each replica evaluated on it —
	// the access teacher forwards make — then released.
	ds := tinyDataset(31)
	leases := srv.cohorts.checkout([]int{0, 1, 2, 3}, false, false)
	for _, l := range leases {
		fed.Evaluate(l.slot.module, ds, 16)
	}
	if err := srv.cohorts.release(leases); err != nil {
		t.Fatal(err)
	}
	for id := range before {
		after, _, err := srv.ReplicaPayload(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before[id], after) {
			t.Fatalf("read-only checkout changed device %d slot bytes", id)
		}
	}
}

// TestQuantisedDistillMovesReplicas: the full server phase works on
// quantised slots — states move, stay finite, and remain distinct across
// same-architecture members.
func TestQuantisedDistillMovesReplicas(t *testing.T) {
	for _, name := range []string{"float16", "int8"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.StateCodec = name
			cfg.DistillIters = 3
			srv := registerN(t, cfg, 3, "mlp")
			before := make([]nn.StateDict, 3)
			for id := range before {
				before[id], _ = srv.ReplicaState(id)
			}
			if _, err := srv.Distill(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			for id := range before {
				after, err := srv.ReplicaState(id)
				if err != nil {
					t.Fatal(err)
				}
				moved := false
				for tname, w := range after {
					if !w.IsFinite() {
						t.Fatalf("device %d state %q became non-finite", id, tname)
					}
					if tensor.MaxAbsDiff(before[id][tname], w) > 0 {
						moved = true
					}
				}
				if !moved {
					t.Fatalf("device %d replica did not move during quantised distillation", id)
				}
			}
		})
	}
}

// TestCodecConfigValidation: an unknown codec is rejected at construction.
func TestCodecConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.StateCodec = "float8"
	if _, err := NewServer(cfg, tinyShape(), 4); err == nil {
		t.Fatal("want configuration error for unknown state codec")
	}
	for _, name := range append([]string{""}, codec.Names()...) {
		cfg.StateCodec = name
		if _, err := NewServer(cfg, tinyShape(), 4); err != nil {
			t.Fatalf("StateCodec=%q rejected: %v", name, err)
		}
	}
}

// TestQuantisedCheckpointBitExact: a same-codec checkpoint round trip
// restores every quantised slot byte for byte — the slot encoding is
// persisted verbatim, so no requantisation loss accrues across
// save/load cycles.
func TestQuantisedCheckpointBitExact(t *testing.T) {
	cfg := tinyConfig()
	cfg.StateCodec = "int8"
	cfg.DistillIters = 2
	srv := registerN(t, cfg, 4, "mlp", "lenet-s")
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
	for id := 0; id < 4; id++ {
		a, _, err := srv.ReplicaPayload(id)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := restored.ReplicaPayload(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("device %d slot bytes not restored verbatim", id)
		}
	}
}

// TestCrossCodecCheckpointLoad: payloads are self-describing, so a
// checkpoint written by a dense server loads into a quantised server and
// vice versa, with values surviving within the quantisation bound.
func TestCrossCodecCheckpointLoad(t *testing.T) {
	dense := tinyConfig()
	srvDense, err := NewServer(dense, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvDense.Register("mlp", nil); err != nil {
		t.Fatal(err)
	}
	blob, err := srvDense.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	quant := dense
	quant.StateCodec = "int8"
	quant.DistillIters = 2
	srvQuant, err := NewServer(quant, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := srvQuant.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	want, _ := srvDense.ReplicaState(0)
	got, err := srvQuant.ReplicaState(0)
	if err != nil {
		t.Fatal(err)
	}
	// The dense payload is re-encoded into the configured codec at load
	// — the slot must honour int8's memory bound and accounting, not the
	// checkpoint's dtype — so values survive within the quantisation
	// step, not exactly.
	for name, w := range want {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range w.Data() {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		bound := (hi-lo)/510*(1+1e-9) + 1e-300
		if diff := tensor.MaxAbsDiff(got[name], w); diff > bound {
			t.Fatalf("state %q drifted by %g (> step/2 %g) across a float64 → int8 checkpoint load", name, diff, bound)
		}
	}
	// The adopted slot is resident in int8 form, not the checkpoint's
	// dense form: the memory bound holds immediately after the load.
	if dense, quantised := srvDense.ResidentStateBytes(), srvQuant.ResidentStateBytes(); dense < 4*quantised {
		t.Fatalf("int8 server holds %d resident bytes after a dense checkpoint load vs %d dense: want ≥4× reduction", quantised, dense)
	}
	// And the quantised server keeps working on the adopted slots.
	if _, err := srvQuant.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}
