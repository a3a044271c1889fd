package main

import (
	"fmt"
	"sort"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
)

// workload is one named round shape. An in-process workload builds a
// fedzkt.Coordinator over a synthetic dataset; a networked one (net set)
// runs transport.NewServer with RunDevice goroutines over loopback TCP.
type workload struct {
	name string

	// In-process federation.
	data    data.Config
	devices int
	archs   []string
	cfg     fedzkt.Config
	// checkpoint writes a durable checkpoint after every round into a
	// fresh directory, keeping all of them for the post-run CRC check.
	checkpoint bool

	// Networked federation: one RunDevice goroutine per arch.
	net   bool
	sizes data.Sizes
}

// fedSeed is the in-process federations' own seed (model initialisation,
// client sampling, local and server RNG streams). It is fixed, like a
// deployment's configuration, so every seed's run samples the same
// device mix each round and does the same amount of work; the workload
// seed generates the data and its partition across devices.
const fedSeed = 1

// workloads returns the benchmark's round shapes, each generated from
// seed. Round counts are chosen so one fresh-process repetition takes
// 5–10 s on a 2-core host, leaving several repetitions per run.
//
// tiny shrinks every workload to a fraction of a second per repetition;
// the self-test runs at that size.
func workloads(seed uint64, tiny bool) []workload {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	digits8 := func(perClass int) data.Config {
		return data.Config{Name: "digits8", Family: data.FamilyDigits, Classes: 10,
			C: 1, H: 8, W: 8, TrainPerClass: perClass, TestPerClass: 50, Seed: seed}
	}
	digits16 := func(perClass int) data.Config {
		return data.Config{Name: "digits16", Family: data.FamilyDigits, Classes: 10,
			C: 1, H: 16, W: 16, TrainPerClass: perClass, TestPerClass: 10, Seed: seed}
	}
	// fleet1k and spill1k share one device population: 1,000 devices with
	// 20 IID samples each.
	fleetDevices := pick(1000, 40)
	fleetData := digits16(fleetDevices * 20 / 10)
	return []workload{
		{
			name: "paper10",
			data: digits8(pick(100, 20)), devices: 10, archs: model.ZooFor(model.SmallZoo(), 10),
			cfg: fedzkt.Config{
				Rounds: 2, LocalEpochs: 2, DistillIters: pick(30, 3), DistillBatch: 32,
				EvalEvery: 1, Seed: fedSeed,
			},
		},
		{
			name: "fleet1k",
			data: fleetData, devices: fleetDevices, archs: []string{"mlp", "lenet-s"},
			cfg: fedzkt.Config{
				Rounds: 2, LocalEpochs: 2, DistillIters: 3, SampleK: pick(100, 8),
				TeachersPerIter: 8, EvalEvery: 2, Seed: fedSeed,
			},
		},
		{
			name: "spill1k",
			data: fleetData, devices: fleetDevices, archs: []string{"mlp", "lenet-s"},
			cfg: fedzkt.Config{
				Rounds: 2, LocalEpochs: 2, DistillIters: 3, SampleK: pick(32, 8),
				TeachersPerIter: 8, ReplicaStore: fedzkt.ReplicaStoreSpill, ReplicaShards: 2, HotSet: 8,
				StateCodec: "int8", EvalDevices: pick(64, 8), EvalEvery: 2, Seed: fedSeed,
			},
			checkpoint: true,
		},
		{
			name: "loopback2",
			// The networked server derives its dataset from the federation
			// seed, so here the workload seed drives both.
			net: true, archs: []string{"mlp", "lenet-l"}, sizes: data.DefaultSizes,
			cfg: fedzkt.Config{Rounds: pick(3, 2), DistillIters: 3, Seed: seed},
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string, seed uint64, tiny bool) (workload, error) {
	var names []string
	for _, w := range workloads(seed, tiny) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
