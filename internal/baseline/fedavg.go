package baseline

import (
	"context"
	"fmt"
	"time"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// FedAvgConfig parameterises a FedAvg run (McMahan et al., 2017). FedAvg
// requires homogeneous on-device models; it is included as the classical
// reference point and for framework sanity tests.
type FedAvgConfig struct {
	Rounds         int
	LocalEpochs    int
	BatchSize      int
	LR             float64
	ActiveFraction float64
	Arch           string
	Seed           uint64
}

func (c FedAvgConfig) withDefaults() FedAvgConfig {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 2
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.ActiveFraction == 0 {
		c.ActiveFraction = 1
	}
	if c.Arch == "" {
		c.Arch = "cnn"
	}
	return c
}

// FedAvg holds a homogeneous federation with element-wise parameter
// averaging.
type FedAvg struct {
	cfg     FedAvgConfig
	ds      *data.Dataset
	devices []*fed.Device
	global  nn.Module
	sampler sched.Fraction
	// proxMu, when positive, adds the FedProx proximal term to the local
	// objective (set via NewFedProx).
	proxMu float64
	// arena is the shared step-scoped allocator of the sequential local
	// training loop.
	arena *ag.Arena
}

// NewFedAvg builds the federation; every device runs cfg.Arch.
func NewFedAvg(cfg FedAvgConfig, ds *data.Dataset, shards [][]int) (*FedAvg, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("baseline: fedavg needs at least one shard")
	}
	sampler, err := sched.NewFraction(cfg.ActiveFraction)
	if err != nil {
		return nil, fmt.Errorf("baseline: fedavg: %w", err)
	}
	in := model.Shape{C: ds.C, H: ds.H, W: ds.W}
	global, err := model.Build(cfg.Arch, in, ds.Classes, tensor.NewRand(cfg.Seed+3))
	if err != nil {
		return nil, fmt.Errorf("baseline: fedavg global: %w", err)
	}
	f := &FedAvg{cfg: cfg, ds: ds, global: global, sampler: sampler, arena: ag.NewArena()}
	for i := range shards {
		if len(shards[i]) == 0 {
			return nil, fmt.Errorf("baseline: device %d has an empty shard", i)
		}
		m, err := model.Build(cfg.Arch, in, ds.Classes, tensor.NewRand(cfg.Seed+3))
		if err != nil {
			return nil, err
		}
		// All devices start from the global initialisation.
		if err := nn.LoadState(m, nn.CaptureState(global)); err != nil {
			return nil, err
		}
		f.devices = append(f.devices, fed.NewDevice(i, cfg.Arch, m, data.NewSubset(ds, shards[i])))
	}
	return f, nil
}

// Global exposes the averaged global model.
func (f *FedAvg) Global() nn.Module { return f.global }

// Run executes cfg.Rounds FedAvg rounds and returns the metrics history.
func (f *FedAvg) Run(ctx context.Context) (fed.History, error) {
	cfg := f.cfg
	hist := make(fed.History, 0, cfg.Rounds)
	rng := tensor.NewRand(cfg.Seed + 77)
	for round := 1; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return hist, fmt.Errorf("baseline: fedavg cancelled at round %d: %w", round, err)
		}
		start := time.Now()
		m := fed.RoundMetrics{Round: round}
		active := f.sampler.Sample(len(f.devices), rng)
		m.Active = active

		// Broadcast current global parameters to active devices.
		globalState := nn.CaptureState(f.global)
		for _, id := range active {
			if err := f.devices[id].Download(globalState.Clone()); err != nil {
				return hist, err
			}
			m.BytesDown += fed.WireBytes(globalState.Numel(), fed.WidthFloat64)
		}

		// Local training, sequential: every device trains on one shared
		// step-scoped arena, reset per step inside LocalUpdate.
		local := fed.LocalConfig{Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.LR, ProxMu: f.proxMu}
		uploads := make([]nn.StateDict, 0, len(active))
		weights := make([]float64, 0, len(active))
		for _, id := range active {
			drng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<16 + uint64(id)))
			f.devices[id].Scratch = f.arena
			_, err := f.devices[id].LocalUpdate(local, drng)
			f.devices[id].Scratch = nil
			if err != nil {
				return hist, err
			}
			sd := f.devices[id].Upload()
			uploads = append(uploads, sd)
			weights = append(weights, float64(f.devices[id].Data.Len()))
			m.BytesUp += fed.WireBytes(sd.Numel(), fed.WidthFloat64)
		}

		// Element-wise weighted average into the global model.
		if err := averageInto(f.global, uploads, weights); err != nil {
			return hist, err
		}

		m.GlobalAcc = fed.Evaluate(f.global, f.ds, 64)
		m.DeviceAcc = fed.EvaluateAll(f.devices, f.ds, 64)
		m.MeanDeviceAcc = fed.Mean(m.DeviceAcc)
		m.Elapsed = time.Since(start)
		hist = append(hist, m)
	}
	return hist, nil
}

// averageInto writes the sample-weighted average of the uploads into dst.
func averageInto(dst nn.Module, uploads []nn.StateDict, weights []float64) error {
	if len(uploads) == 0 {
		return fmt.Errorf("baseline: no uploads to average")
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return fmt.Errorf("baseline: zero total weight")
	}
	avg := uploads[0].Clone()
	for name, t := range avg {
		tensor.ScaleInPlace(t, weights[0]/total)
		for i := 1; i < len(uploads); i++ {
			src, ok := uploads[i][name]
			if !ok {
				return fmt.Errorf("baseline: upload %d missing state %q", i, name)
			}
			tensor.AxpyInto(t, weights[i]/total, src)
		}
	}
	return nn.LoadState(dst, avg)
}
