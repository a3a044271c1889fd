package fed

import (
	"testing"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// tinyDataset builds a fast 4-class 8×8 dataset for runtime tests.
func tinyDataset(seed uint64) *data.Dataset {
	return data.MustMake(data.Config{
		Name: "tiny", Family: data.FamilyDigits, Classes: 4,
		C: 1, H: 8, W: 8,
		TrainPerClass: 30, TestPerClass: 10,
		Seed: seed,
	})
}

func tinyDevice(t *testing.T, ds *data.Dataset, idx []int, seed uint64) *Device {
	t.Helper()
	m, err := model.Build("lenet-s", model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes, tensor.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewDevice(0, "lenet-s", m, data.NewSubset(ds, idx))
}

func allTrain(ds *data.Dataset) []int {
	idx := make([]int, ds.NumTrain())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestLocalUpdateLearns(t *testing.T) {
	ds := tinyDataset(1)
	dev := tinyDevice(t, ds, allTrain(ds), 2)
	before := Evaluate(dev.Model, ds, 32)
	cfg := LocalConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Momentum: 0.9}
	loss, err := dev.LocalUpdate(cfg, tensor.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	after := Evaluate(dev.Model, ds, 32)
	if after < before+0.2 || after < 0.5 {
		t.Fatalf("local update did not learn: before=%.3f after=%.3f (loss %.3f)", before, after, loss)
	}
}

func TestLocalUpdateValidation(t *testing.T) {
	ds := tinyDataset(4)
	dev := tinyDevice(t, ds, allTrain(ds), 5)
	if _, err := dev.LocalUpdate(LocalConfig{}, tensor.NewRand(1)); err == nil {
		t.Fatal("want error for zero config")
	}
	if _, err := dev.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 0, LR: 0.1}, tensor.NewRand(1)); err == nil {
		t.Fatal("want error for zero batch size")
	}
}

func TestProximalTermRestrainsDrift(t *testing.T) {
	ds := tinyDataset(6)
	mkDev := func() *Device {
		d := tinyDevice(t, ds, allTrain(ds), 7)
		d.SnapshotReceived()
		return d
	}
	drift := func(d *Device) float64 {
		total := 0.0
		cur := nn.CaptureState(d.Model)
		for name, w := range cur {
			prev := d.received[name]
			diff := tensor.Sub(w, prev)
			total += tensor.Norm2(diff)
		}
		return total
	}
	free := mkDev()
	if _, err := free.LocalUpdate(LocalConfig{Epochs: 4, BatchSize: 16, LR: 0.05, Momentum: 0.9}, tensor.NewRand(8)); err != nil {
		t.Fatal(err)
	}
	prox := mkDev()
	if _, err := prox.LocalUpdate(LocalConfig{Epochs: 4, BatchSize: 16, LR: 0.05, Momentum: 0.9, ProxMu: 5}, tensor.NewRand(8)); err != nil {
		t.Fatal(err)
	}
	df, dp := drift(free), drift(prox)
	if dp >= df {
		t.Fatalf("proximal term did not restrain drift: free=%.4f prox=%.4f", df, dp)
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	ds := tinyDataset(9)
	a := tinyDevice(t, ds, allTrain(ds), 10)
	b := tinyDevice(t, ds, allTrain(ds), 20)
	if _, err := a.LocalUpdate(LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05}, tensor.NewRand(11)); err != nil {
		t.Fatal(err)
	}
	if err := b.Download(a.Upload()); err != nil {
		t.Fatal(err)
	}
	sa, sb := nn.CaptureState(a.Model), nn.CaptureState(b.Model)
	for name := range sa {
		if tensor.MaxAbsDiff(sa[name], sb[name]) != 0 {
			t.Fatalf("state %q differs after download", name)
		}
	}
	if b.received == nil {
		t.Fatal("download must snapshot the proximal anchor")
	}
}

func TestHistoryHelpers(t *testing.T) {
	h := History{
		{Round: 1, GlobalAcc: 0.3, MeanDeviceAcc: 0.2, BytesUp: 10, BytesDown: 5},
		{Round: 2, GlobalAcc: 0.5, MeanDeviceAcc: 0.4, BytesUp: 10, BytesDown: 5},
	}
	if h.FinalGlobalAcc() != 0.5 || h.FinalMeanDeviceAcc() != 0.4 {
		t.Fatal("final accessors wrong")
	}
	if s := h.GlobalAccSeries(); len(s) != 2 || s[0] != 0.3 {
		t.Fatal("series wrong")
	}
	up, down := h.TotalBytes()
	if up != 20 || down != 10 {
		t.Fatalf("TotalBytes = %d/%d", up, down)
	}
	var empty History
	if empty.FinalGlobalAcc() != 0 || empty.FinalMeanDeviceAcc() != 0 {
		t.Fatal("empty history must return zeros")
	}
}

func TestEvaluateAllAndMean(t *testing.T) {
	ds := tinyDataset(30)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(31))
	devs := []*Device{
		tinyDevice(t, ds, shards[0], 32),
		tinyDevice(t, ds, shards[1], 33),
	}
	accs := EvaluateAll(devs, ds, 16)
	if len(accs) != 2 {
		t.Fatalf("EvaluateAll returned %d accuracies", len(accs))
	}
	for _, a := range accs {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %v outside [0,1]", a)
		}
	}
	if m := Mean(accs); m != (accs[0]+accs[1])/2 {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) must be 0")
	}
}
