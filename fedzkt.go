// Package fedzkt is the public facade of the FedZKT reproduction: federated
// learning with heterogeneous on-device models via zero-shot knowledge
// transfer (Zhang, Wu, Yuan — ICDCS 2022).
//
// The facade re-exports the core types from the internal packages through
// type aliases, so a downstream user needs only this import:
//
//	co, err := fedzkt.New(fedzkt.Config{Rounds: 10}, ds, archs, shards)
//	hist, err := co.Run(ctx)
//
// Rounds execute on the sharded device-scale scheduler (internal/sched),
// so a federation can simulate far more devices than CPU cores. The
// scheduler is configured through Config fields — Workers (pool size),
// SampleK / SampleWeighted (client-sampling policy), RoundDeadline
// (stragglers are dropped from aggregation), FailureRate (deterministic
// failure injection) and Sequential (the reference scheduler). With no
// RoundDeadline set, results are bit-identical for any worker count
// (a deadline makes straggler survival wall-clock-dependent by design):
//
//	co, err := fedzkt.New(fedzkt.Config{
//		Rounds: 2, SampleK: 32, Workers: 8, FailureRate: 0.05,
//	}, ds, archs, shards) // e.g. 1,000 shards — see examples/scale
//
// The server side scales independently: replicas are stored in
// architecture cohorts (shared live modules + per-device state dicts),
// and TeachersPerIter / TeacherSampling / CohortReplicas switch the
// server phase from the paper-exact full teacher ensemble
// (TeachersPerIter: 0, byte-identical to the flat-replica
// implementation) to sampling T teachers per distillation iteration —
// O(T) server cost per iteration instead of O(devices):
//
//	co, err := fedzkt.New(fedzkt.Config{
//		Rounds: 2, SampleK: 32, TeachersPerIter: 8, TeacherSampling: "weighted",
//	}, ds, archs, shards)
//
// PipelineDepth sets how far the round engine's local stage may run
// ahead of its server stage: 0 (the default) is the paper-exact barrier;
// depth D ≥ 1 overlaps the server's distillation of round r with round
// r+1's on-device training, devices training on bounded-stale parameters
// (round r starts from the download of round r−1−D). DeviceAcc is the
// on-device models' accuracy at every depth, and metrics stay
// byte-identical across worker counts for a fixed depth and seed:
//
//	co, err := fedzkt.New(fedzkt.Config{
//		Rounds: 4, SampleK: 32, TeachersPerIter: 8, PipelineDepth: 2,
//	}, ds, archs, shards)
//
// StateCodec selects how model state is stored in the server's replica
// slots, carried on the (simulated or real) wire, and persisted in
// checkpoints: "float64" (dense identity, the default — byte-identical
// to the pre-codec pipeline), "float16" (4× smaller), or "int8"
// (per-tensor affine quantisation, 8× smaller). Quantised runs stay
// deterministic across worker counts; the scale experiment's codec table
// reports the accuracy trade-off:
//
//	co, err := fedzkt.New(fedzkt.Config{
//		Rounds: 2, SampleK: 32, TeachersPerIter: 8, StateCodec: "int8",
//	}, ds, archs, shards)
//
// The full machinery lives in the internal packages (documented in
// DESIGN.md): internal/fedzkt (Algorithms 1 & 3), internal/fed (device
// runtime), internal/sched (the round scheduler and sampling policies),
// internal/codec (the state codecs and container format),
// internal/model (the heterogeneous model zoo and generator),
// internal/data (synthetic datasets), internal/partition (IID / label-skew
// partitioners), internal/baseline (FedMD, FedAvg, standalone bounds),
// internal/transport (networked federation), and internal/experiments
// (every table and figure of the paper).
package fedzkt

import (
	"github.com/fedzkt/fedzkt/internal/baseline"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	ifedzkt "github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Core algorithm types (internal/fedzkt).
type (
	// Config parameterises a FedZKT run; zero fields take documented
	// defaults.
	Config = ifedzkt.Config
	// Coordinator runs an in-process federation.
	Coordinator = ifedzkt.Coordinator
	// Server is the server-side core shared with the networked runtime.
	Server = ifedzkt.Server
	// LossKind selects the zero-shot disagreement loss.
	LossKind = ifedzkt.LossKind
	// ReplicaStoreStats snapshots the server's replica store: residency,
	// hot-set hit rate, prefetch overlap and spill traffic.
	ReplicaStoreStats = ifedzkt.ReplicaStoreStats
)

// Replica store modes for Config.ReplicaStore.
const (
	// ReplicaStoreMemory keeps every replica slot resident (the default).
	ReplicaStoreMemory = ifedzkt.ReplicaStoreMemory
	// ReplicaStoreSpill keeps an LRU hot set per cohort shard and spills
	// cold replicas to fixed-stride disk files, bounding server memory by
	// the hot-set size instead of the device count (the million-device
	// regime; see Config.ReplicaStore, ReplicaShards, HotSet and
	// VirtualDevices).
	ReplicaStoreSpill = ifedzkt.ReplicaStoreSpill
)

// Disagreement losses (paper §III-B2).
const (
	// LossSL is the paper's Softmax-ℓ1 loss (Eq. 5).
	LossSL = ifedzkt.LossSL
	// LossKL is the KL-divergence loss (Eq. 3).
	LossKL = ifedzkt.LossKL
	// LossL1 is the raw-logit ℓ1 loss (Eq. 4).
	LossL1 = ifedzkt.LossL1
)

// Federation runtime types (internal/fed).
type (
	// Device is one federated participant.
	Device = fed.Device
	// History is the per-round metrics trace of a run.
	History = fed.History
	// RoundMetrics records one communication round.
	RoundMetrics = fed.RoundMetrics
	// LocalConfig configures on-device training (Algorithm 2 + Eq. 9).
	LocalConfig = fed.LocalConfig
)

// Data types (internal/data).
type (
	// Dataset is a synthetic labelled image dataset.
	Dataset = data.Dataset
	// DataConfig describes a synthetic dataset to render.
	DataConfig = data.Config
	// Sizes sets per-class sample counts.
	Sizes = data.Sizes
)

// Shape describes model input as channels × height × width.
type Shape = model.Shape

// New builds an in-process FedZKT federation over ds: one device per
// shard, architectures cycled from archs.
func New(cfg Config, ds *Dataset, archs []string, shards [][]int) (*Coordinator, error) {
	return ifedzkt.New(cfg, ds, archs, shards)
}

// NewServer builds only the server side (global model, generator,
// replicas), as used by the networked runtime.
func NewServer(cfg Config, in Shape, classes int) (*Server, error) {
	return ifedzkt.NewServer(cfg, in, classes)
}

// ParseLoss converts "sl", "kl" or "l1" to a LossKind.
func ParseLoss(s string) (LossKind, error) { return ifedzkt.ParseLoss(s) }

// StateCodecs lists the registered state-codec names accepted by
// Config.StateCodec: "float64", "float16", "int8".
func StateCodecs() []string { return codec.Names() }

// SmallZoo returns the five heterogeneous architectures used for the
// 1-channel datasets.
func SmallZoo() []string { return model.SmallZoo() }

// CIFARZoo returns the five heterogeneous architectures used for the
// 3-channel datasets (Table V's Models A–E).
func CIFARZoo() []string { return model.CIFARZoo() }

// Architectures lists every registered model name.
func Architectures() []string { return model.Names() }

// PartitionIID splits n samples across k devices uniformly.
func PartitionIID(n, k int, seed uint64) [][]int {
	return partition.IID(n, k, tensor.NewRand(seed))
}

// PartitionQuantitySkew gives each of k devices exactly classesPerDevice
// classes (quantity-based label imbalance).
func PartitionQuantitySkew(labels []int, numClasses, k, classesPerDevice int, seed uint64) [][]int {
	return partition.QuantitySkew(labels, numClasses, k, classesPerDevice, tensor.NewRand(seed))
}

// PartitionDirichlet splits every class across k devices by Dirichlet(β)
// proportions (distribution-based label imbalance).
func PartitionDirichlet(labels []int, numClasses, k int, beta float64, seed uint64) [][]int {
	return partition.Dirichlet(labels, numClasses, k, beta, tensor.NewRand(seed))
}

// Evaluate reports a device model's test accuracy.
func Evaluate(d *Device, ds *Dataset) float64 { return fed.Evaluate(d.Model, ds, 64) }

// Baseline types (internal/baseline).
type (
	// FedMD is the public-dataset federated distillation baseline.
	FedMD = baseline.FedMD
	// FedMDConfig parameterises a FedMD run.
	FedMDConfig = baseline.FedMDConfig
	// FedAvg is the classical homogeneous-model baseline.
	FedAvg = baseline.FedAvg
	// FedAvgConfig parameterises a FedAvg run.
	FedAvgConfig = baseline.FedAvgConfig
	// FedProx is FedAvg with the ℓ2 proximal local objective.
	FedProx = baseline.FedProx
	// FedProxConfig parameterises a FedProx run.
	FedProxConfig = baseline.FedProxConfig
)

// NewFedMD builds the FedMD baseline federation.
func NewFedMD(cfg FedMDConfig, private, public *Dataset, archs []string, shards [][]int) (*FedMD, error) {
	return baseline.NewFedMD(cfg, private, public, archs, shards)
}

// NewFedAvg builds the FedAvg baseline federation (homogeneous models).
func NewFedAvg(cfg FedAvgConfig, ds *Dataset, shards [][]int) (*FedAvg, error) {
	return baseline.NewFedAvg(cfg, ds, shards)
}

// NewFedProx builds the FedProx baseline federation.
func NewFedProx(cfg FedProxConfig, ds *Dataset, shards [][]int) (*FedProx, error) {
	return baseline.NewFedProx(cfg, ds, shards)
}
