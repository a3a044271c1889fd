package baseline

import (
	"context"
	"testing"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

func tinyDataset(seed uint64, family data.Family) *data.Dataset {
	return data.MustMake(data.Config{
		Name: "tiny", Family: family, Classes: 4,
		C: 1, H: 8, W: 8,
		TrainPerClass: 30, TestPerClass: 12,
		Seed: seed,
	})
}

func TestFedMDValidation(t *testing.T) {
	priv := tinyDataset(1, data.FamilyDigits)
	pub := tinyDataset(2, data.FamilyGlyphs)
	if _, err := NewFedMD(FedMDConfig{}, priv, pub, nil, [][]int{{0}}); err == nil {
		t.Fatal("want error for no architectures")
	}
	badPub := data.MustMake(data.Config{
		Name: "bad", Family: data.FamilyObjects, Classes: 4,
		C: 3, H: 8, W: 8, TrainPerClass: 5, TestPerClass: 2, Seed: 3,
	})
	if _, err := NewFedMD(FedMDConfig{}, priv, badPub, []string{"cnn"}, [][]int{{0}}); err == nil {
		t.Fatal("want error for mismatched shapes")
	}
}

func TestFedMDLearns(t *testing.T) {
	priv := tinyDataset(4, data.FamilyDigits)
	pub := tinyDataset(5, data.FamilyGlyphs) // related 1-channel family
	shards := partition.IID(priv.NumTrain(), 3, tensor.NewRand(6))
	cfg := FedMDConfig{
		Rounds: 3, PublicSubset: 48, TransferEpochs: 2,
		DigestEpochs: 1, RevisitEpochs: 2, BatchSize: 16, LR: 0.05, Seed: 7,
	}
	fm, err := NewFedMD(cfg, priv, pub, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := fm.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history len %d", len(hist))
	}
	if acc := hist.FinalMeanDeviceAcc(); acc < 0.4 {
		t.Fatalf("FedMD mean device accuracy %.3f; want > 0.4", acc)
	}
	for _, m := range hist {
		if m.BytesUp == 0 || m.BytesDown == 0 {
			t.Fatal("FedMD must account logit traffic")
		}
		if m.GlobalAcc != 0 {
			t.Fatal("FedMD has no global model")
		}
	}
}

func TestFedMDCancellation(t *testing.T) {
	priv := tinyDataset(8, data.FamilyDigits)
	pub := tinyDataset(9, data.FamilyGlyphs)
	shards := partition.IID(priv.NumTrain(), 2, tensor.NewRand(10))
	fm, err := NewFedMD(FedMDConfig{Rounds: 5, TransferEpochs: 1, BatchSize: 16}, priv, pub, []string{"mlp"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fm.Run(ctx); err == nil {
		t.Fatal("want cancellation error")
	}
}

func TestFedAvgLearnsAndAverages(t *testing.T) {
	ds := tinyDataset(11, data.FamilyDigits)
	shards := partition.IID(ds.NumTrain(), 3, tensor.NewRand(12))
	cfg := FedAvgConfig{Rounds: 4, LocalEpochs: 3, BatchSize: 16, LR: 0.05, Arch: "cnn", Seed: 13}
	fa, err := NewFedAvg(cfg, ds, shards)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := fa.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if acc := hist.FinalGlobalAcc(); acc < 0.45 {
		t.Fatalf("FedAvg global accuracy %.3f; want > 0.45", acc)
	}
}

func TestFedAvgRejectsBadFraction(t *testing.T) {
	ds := tinyDataset(11, data.FamilyDigits)
	shards := partition.IID(ds.NumTrain(), 3, tensor.NewRand(12))
	if _, err := NewFedAvg(FedAvgConfig{ActiveFraction: 1.5}, ds, shards); err == nil {
		t.Fatal("want error for active fraction 1.5")
	}
}

func TestAverageInto(t *testing.T) {
	rng := tensor.NewRand(14)
	in := model.Shape{C: 1, H: 8, W: 8}
	m1 := model.MustBuild("mlp", in, 4, rng)
	m2 := model.MustBuild("mlp", in, 4, tensor.NewRand(15))
	dst := model.MustBuild("mlp", in, 4, tensor.NewRand(16))

	s1 := nn.CaptureState(m1).Clone()
	s2 := nn.CaptureState(m2).Clone()
	// weights 1 and 3: avg = 0.25*s1 + 0.75*s2.
	if err := averageInto(dst, []nn.StateDict{s1, s2}, []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	got := nn.CaptureState(dst)
	for name := range s1 {
		want := tensor.Add(tensor.Scale(0.25, s1[name]), tensor.Scale(0.75, s2[name]))
		if d := tensor.MaxAbsDiff(got[name], want); d > 1e-12 {
			t.Fatalf("state %q averaged wrong (Δ=%g)", name, d)
		}
	}

	if err := averageInto(dst, nil, nil); err == nil {
		t.Fatal("want error for empty uploads")
	}
	if err := averageInto(dst, []nn.StateDict{s1}, []float64{0}); err == nil {
		t.Fatal("want error for zero weight")
	}
}

func TestStandaloneBounds(t *testing.T) {
	ds := tinyDataset(17, data.FamilyDigits)
	shards := partition.QuantitySkew(ds.TrainY, ds.Classes, 3, 2, tensor.NewRand(18))
	cfg := StandaloneConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 19}
	bounds, err := LowerUpperBounds(cfg, ds, []string{"cnn", "mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 {
		t.Fatalf("got %d bounds", len(bounds))
	}
	for _, b := range bounds {
		if b.Upper < 0.4 {
			t.Fatalf("device %d (%s): upper bound %.3f implausibly low", b.Device, b.Arch, b.Upper)
		}
		// With quantity skew (2 of 4 classes per device), own-shard training
		// cannot generalise to unseen classes: upper must beat lower.
		if b.Upper <= b.Lower {
			t.Fatalf("device %d (%s): upper %.3f not above lower %.3f", b.Device, b.Arch, b.Upper, b.Lower)
		}
	}
}

func TestTrainStandaloneErrors(t *testing.T) {
	ds := tinyDataset(20, data.FamilyDigits)
	if _, err := TrainStandalone(StandaloneConfig{}, "cnn", ds, nil); err == nil {
		t.Fatal("want error for empty index set")
	}
	if _, err := TrainStandalone(StandaloneConfig{}, "bogus", ds, []int{0}); err == nil {
		t.Fatal("want error for unknown arch")
	}
}

func TestDigestMovesLogitsTowardConsensus(t *testing.T) {
	ds := tinyDataset(21, data.FamilyDigits)
	in := model.Shape{C: 1, H: 8, W: 8}
	m := model.MustBuild("mlp", in, 4, tensor.NewRand(22))
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	px, _ := ds.GatherTrain(idx)
	consensus := tensor.New(len(idx), 4)
	tensor.FillNormal(consensus, 0, 1, tensor.NewRand(23))

	dist := func() float64 {
		m.SetTraining(false)
		defer m.SetTraining(true)
		out := m.Forward(ag.Const(px)).Value()
		return tensor.Norm1(tensor.Sub(out, consensus))
	}
	before := dist()
	if err := digest(m, px, consensus, 5, 4, 0.05, tensor.NewRand(24), ag.NewArena()); err != nil {
		t.Fatal(err)
	}
	after := dist()
	if after >= before {
		t.Fatalf("digest did not reduce consensus distance: %.3f -> %.3f", before, after)
	}
}
