// Package experiments reproduces every table and figure of the FedZKT
// evaluation (Tables I–IV, Figures 2–7) plus ablations beyond the paper,
// at three scales: Smoke (seconds, used by benchmarks and CI), Default
// (minutes per experiment on one CPU core), and Full (paper-sized loop
// counts; hours). See DESIGN.md §4 for the experiment ↔ module index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"github.com/fedzkt/fedzkt/internal/baseline"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Scale selects the experiment sizing.
type Scale int

// Experiment scales.
const (
	// ScaleSmoke runs in seconds; used by the benchmark harness.
	ScaleSmoke Scale = iota + 1
	// ScaleDefault runs in minutes per experiment on a single core; the
	// recorded EXPERIMENTS.md numbers use this scale.
	ScaleDefault
	// ScaleFull uses paper-sized loop counts (50–100 rounds, n_D=200+,
	// batch 256); hours per experiment on CPU.
	ScaleFull
)

// ParseScale converts "smoke", "default" or "full".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return ScaleSmoke, nil
	case "default":
		return ScaleDefault, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want smoke, default or full)", s)
	}
}

// Params holds the scale-dependent sizing of an experiment run.
type Params struct {
	Scale Scale
	// Img is the square image size (8 at smoke/default, 16 at full).
	Img int
	// TrainPerClass / TestPerClass size the synthetic datasets.
	TrainPerClass, TestPerClass int
	// Devices is K, the federation size (sweeps override it).
	Devices int
	// Rounds / RoundsCIFAR are the communication round counts (the paper
	// uses 50 for the small datasets and 100 for CIFAR-10).
	Rounds, RoundsCIFAR int
	// LocalEpochs / LocalEpochsCIFAR are T_l (paper: 5 and 10).
	LocalEpochs, LocalEpochsCIFAR int
	// DistillIters, StudentSteps, DistillBatch size the server phases.
	DistillIters, StudentSteps, DistillBatch int
	// BatchSize is the device batch size.
	BatchSize int
	// Seed drives every run; experiments offset it per cell.
	Seed uint64

	// Workers bounds every federation's scheduler pool (0 = GOMAXPROCS);
	// set by the -workers flag.
	Workers int
	// SampleK, when positive, makes every federation sample exactly K
	// clients per round (uniform-K); set by the -sample-k flag.
	SampleK int
	// RoundDeadline drops devices that miss the per-round wall-clock
	// budget from aggregation; set by the -round-deadline flag.
	RoundDeadline time.Duration
	// ScaleDevices overrides the scale experiment's device-count sweep
	// (set by the -devices flag; nil uses the per-scale defaults).
	ScaleDevices []int
	// TeachersPerIter, when positive, makes every federation's server
	// sample that many replica teachers per distillation iteration
	// instead of the full ensemble; set by the -teachers-per-iter flag.
	TeachersPerIter int
	// TeacherSampling selects the teacher-subset policy ("uniform" or
	// "weighted"); set by the -teacher-sampling flag.
	TeacherSampling string
	// CohortReplicas bounds the live replica modules retained per
	// architecture cohort; set by the -cohort-replicas flag.
	CohortReplicas int
	// PipelineDepth is the round engine's pipeline depth (0 = synchronous
	// barrier); set by the -pipeline-depth flag. The scale experiment
	// always compares synchronous against pipelined and sizes the
	// pipelined arm with this, defaulting to 1.
	PipelineDepth int
	// StateCodec selects the state codec for every federation's replica
	// slots, wire payloads and checkpoints ("float64", "float16" or
	// "int8"; "" = dense float64); set by the -state-codec flag. The
	// scale experiment additionally sweeps all three codecs in its codec
	// table regardless of this setting.
	StateCodec string
	// ReplicaStore selects every federation's server replica store
	// ("memory" or "spill"); set by the -replica-store flag. The scale
	// experiment additionally runs a spill-tier arm in its store table
	// regardless of this setting.
	ReplicaStore string
	// ReplicaShards splits every federation's cohort store into that many
	// independently locked shards (0 = 1); set by the -shards flag.
	ReplicaShards int
	// HotSet bounds the resident replica slots per cohort shard under the
	// spill store (0 = sized to the teacher window); set by the -hot-set
	// flag.
	HotSet int
	// CheckpointDir, when set, gives every federation durable crash-
	// recovery checkpoints under a per-cell subdirectory (experiments run
	// many federations; sharing one directory would interleave their
	// rotation); set by the -checkpoint-dir flag.
	CheckpointDir string
	// CheckpointEvery is the durable checkpoint cadence in rounds
	// (0 = every round); set by the -checkpoint-every flag.
	CheckpointEvery int
	// Resume makes every federation first load the latest intact
	// checkpoint from its cell subdirectory; set by the -resume flag.
	Resume bool
}

// ParamsFor returns the sizing for a scale.
func ParamsFor(scale Scale) Params {
	switch scale {
	case ScaleSmoke:
		return Params{
			Scale: scale, Img: 8, TrainPerClass: 12, TestPerClass: 6,
			Devices: 3, Rounds: 2, RoundsCIFAR: 2,
			LocalEpochs: 1, LocalEpochsCIFAR: 1,
			DistillIters: 6, StudentSteps: 2, DistillBatch: 16, BatchSize: 16,
			Seed: 1,
		}
	case ScaleFull:
		return Params{
			Scale: scale, Img: 16, TrainPerClass: 200, TestPerClass: 50,
			Devices: 10, Rounds: 50, RoundsCIFAR: 100,
			LocalEpochs: 5, LocalEpochsCIFAR: 10,
			DistillIters: 200, StudentSteps: 1, DistillBatch: 256, BatchSize: 256,
			Seed: 1,
		}
	default:
		return Params{
			Scale: ScaleDefault, Img: 8, TrainPerClass: 30, TestPerClass: 12,
			Devices: 5, Rounds: 8, RoundsCIFAR: 10,
			LocalEpochs: 2, LocalEpochsCIFAR: 2,
			DistillIters: 16, StudentSteps: 2, DistillBatch: 24, BatchSize: 16,
			Seed: 1,
		}
	}
}

// datasetSpec describes one of the six synthetic stand-ins.
type datasetSpec struct {
	family   data.Family
	classes  int
	channels int
	seedMix  uint64
}

var datasetSpecs = map[string]datasetSpec{
	"synthmnist":    {family: data.FamilyDigits, classes: 10, channels: 1, seedMix: 0xA1},
	"synthkmnist":   {family: data.FamilyGlyphs, classes: 10, channels: 1, seedMix: 0xB2},
	"synthfashion":  {family: data.FamilyApparel, classes: 10, channels: 1, seedMix: 0xC3},
	"synthcifar10":  {family: data.FamilyObjects, classes: 10, channels: 3, seedMix: 0xD4},
	"synthcifar100": {family: data.FamilyObjects, classes: 100, channels: 3, seedMix: 0xE5},
	"synthsvhn":     {family: data.FamilyStreet, classes: 10, channels: 3, seedMix: 0xF6},
}

// buildDataset renders a named dataset at the experiment's image size.
func buildDataset(name string, p Params) (*data.Dataset, error) {
	spec, ok := datasetSpecs[name]
	if !ok {
		known := make([]string, 0, len(datasetSpecs))
		for k := range datasetSpecs {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown dataset %q (known: %v)", name, known)
	}
	train := p.TrainPerClass
	test := p.TestPerClass
	if spec.classes > 10 {
		// Keep the 100-class public set about as large as the 10-class
		// private sets.
		train = maxInt(train/10, 3)
		test = maxInt(test/10, 2)
	}
	return data.Make(data.Config{
		Name:          name,
		Family:        spec.family,
		Classes:       spec.classes,
		C:             spec.channels,
		H:             p.Img,
		W:             p.Img,
		TrainPerClass: train,
		TestPerClass:  test,
		Seed:          p.Seed ^ spec.seedMix,
	})
}

// zooFor picks the paper's architecture zoo for a dataset.
func zooFor(name string, k int) []string {
	if datasetSpecs[name].channels == 3 {
		return model.ZooFor(model.CIFARZoo(), k)
	}
	return model.ZooFor(model.SmallZoo(), k)
}

// roundsFor returns the round count (CIFAR runs twice as long, as in the
// paper).
func (p Params) roundsFor(name string) int {
	if datasetSpecs[name].channels == 3 {
		return p.RoundsCIFAR
	}
	return p.Rounds
}

func (p Params) localEpochsFor(name string) int {
	if datasetSpecs[name].channels == 3 {
		return p.LocalEpochsCIFAR
	}
	return p.LocalEpochs
}

// fedzktConfig assembles the algorithm config for a dataset under these
// params. Callers adjust fields (loss, prox, fraction) per experiment.
func (p Params) fedzktConfig(name string, seedOffset uint64) fedzkt.Config {
	return fedzkt.Config{
		Rounds:       p.roundsFor(name),
		LocalEpochs:  p.localEpochsFor(name),
		DistillIters: p.DistillIters,
		StudentSteps: p.StudentSteps,
		DistillBatch: p.DistillBatch,
		BatchSize:    p.BatchSize,
		ZDim:         32,
		DeviceLR:     0.05,
		ServerLR:     0.05,
		GenLR:        3e-4,
		Momentum:     0.9,
		Seed:         p.Seed + seedOffset,

		Workers:       p.Workers,
		SampleK:       p.SampleK,
		RoundDeadline: p.RoundDeadline,

		TeachersPerIter: p.TeachersPerIter,
		TeacherSampling: p.TeacherSampling,
		CohortReplicas:  p.CohortReplicas,
		PipelineDepth:   p.PipelineDepth,
		StateCodec:      p.StateCodec,
		ReplicaStore:    p.ReplicaStore,
		ReplicaShards:   p.ReplicaShards,
		HotSet:          p.HotSet,

		CheckpointDir:   p.checkpointDirFor(name, seedOffset),
		CheckpointEvery: p.CheckpointEvery,
		Resume:          p.Resume,
	}
}

// checkpointDirFor places one federation's durable checkpoints in a
// subdirectory keyed by its dataset name and seed offset — the cell
// identity within an experiment — so concurrent cells never interleave
// their rotation windows.
func (p Params) checkpointDirFor(name string, seedOffset uint64) string {
	if p.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(p.CheckpointDir, fmt.Sprintf("%s-%04d", name, seedOffset))
}

// fedmdConfig assembles the FedMD baseline config for a dataset.
func (p Params) fedmdConfig(name string, seedOffset uint64) baseline.FedMDConfig {
	return baseline.FedMDConfig{
		Rounds:         p.roundsFor(name),
		PublicSubset:   4 * p.DistillBatch,
		TransferEpochs: p.localEpochsFor(name),
		DigestEpochs:   1,
		RevisitEpochs:  p.localEpochsFor(name),
		BatchSize:      p.BatchSize,
		LR:             0.05,
		Seed:           p.Seed + seedOffset,
	}
}

// shardsFor partitions ds for k devices under the named regime:
// "iid", "quantity:<c>", or "dirichlet:<beta>".
func shardsFor(ds *data.Dataset, k int, regime string, c int, beta float64, seed uint64) [][]int {
	rng := tensor.NewRand(seed + 0x5AD)
	switch regime {
	case "iid":
		return partition.IID(ds.NumTrain(), k, rng)
	case "quantity":
		return partition.QuantitySkew(ds.TrainY, ds.Classes, k, c, rng)
	case "dirichlet":
		return partition.Dirichlet(ds.TrainY, ds.Classes, k, beta, rng)
	default:
		panic(fmt.Sprintf("experiments: unknown regime %q", regime))
	}
}

// runFedZKT builds and runs one FedZKT federation, returning its history.
func runFedZKT(cfg fedzkt.Config, ds *data.Dataset, archs []string, shards [][]int) (fed.History, error) {
	co, err := fedzkt.New(cfg, ds, archs, shards)
	if err != nil {
		return nil, err
	}
	if _, err := co.Run(context.Background()); err != nil {
		return nil, err
	}
	// Full finalised history: a resumed federation replays only the tail,
	// but the experiment tables should cover every round.
	return co.History(), nil
}

// runFedMD builds and runs one FedMD federation.
func runFedMD(cfg baseline.FedMDConfig, private, public *data.Dataset, archs []string, shards [][]int) (fed.History, error) {
	fm, err := baseline.NewFedMD(cfg, private, public, archs, shards)
	if err != nil {
		return nil, err
	}
	return fm.Run(context.Background())
}

// publicFor maps each private dataset to its FedMD public dataset, per
// Table I (MNIST→FASHION, FASHION→MNIST, KMNIST→FASHION,
// CIFAR-10→CIFAR-100).
func publicFor(private string) string {
	switch private {
	case "synthmnist", "synthkmnist":
		return "synthfashion"
	case "synthfashion":
		return "synthmnist"
	case "synthcifar10":
		return "synthcifar100"
	default:
		return "synthfashion"
	}
}

// Experiment couples an id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) (*Result, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: IID accuracy, FedZKT vs FedMD", Run: Table1},
		{ID: "fig2", Title: "Figure 2: gradient norms of KL/ℓ1/SL losses (MNIST, IID)", Run: Fig2},
		{ID: "fig3", Title: "Figure 3: learning curves FedZKT vs FedMD (CIFAR-10, IID)", Run: Fig3},
		{ID: "fig4", Title: "Figure 4: non-IID sweeps (quantity & Dirichlet skew)", Run: Fig4},
		{ID: "table2", Title: "Table II: loss-function ablation (CIFAR-10, non-IID)", Run: Table2},
		{ID: "fig5", Title: "Figure 5: per-device curves, heterogeneous zoo (CIFAR-10, IID)", Run: Fig5},
		{ID: "table3", Title: "Table III: per-device lower/upper bounds (CIFAR-10, IID)", Run: Table3},
		{ID: "fig6", Title: "Figure 6: straggler sweep (MNIST & CIFAR-10, IID)", Run: Fig6},
		{ID: "table4", Title: "Table IV: ℓ2-regularisation ablation (CIFAR-10, non-IID)", Run: Table4},
		{ID: "fig7", Title: "Figure 7: device-count sweep (MNIST & CIFAR-10, IID)", Run: Fig7},
		{ID: "commbytes", Title: "Ablation: per-round communication, FedZKT vs FedMD", Run: CommBytes},
		{ID: "gensweep", Title: "Ablation: distillation iterations and z-dimension", Run: GeneratorSweep},
		{ID: "scale", Title: "Scaling: device-count sweep on the sharded round scheduler", Run: ScaleSweep},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
