package fedzkt

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Config parameterises a FedZKT run. Zero fields take the documented
// defaults via withDefaults.
type Config struct {
	// Rounds is the number of communication rounds T.
	Rounds int
	// LocalEpochs is T_l, the local training epochs per round.
	LocalEpochs int
	// DistillIters is n_D, the server distillation iterations per phase
	// per round (the paper uses n_G = n_S).
	DistillIters int
	// StudentSteps is the number of global-model (min) steps per
	// generator (max) step in the adversarial phase. The paper's
	// Algorithm 3 interleaves 1:1 with n_G = n_S = 200..500 iterations;
	// at the scaled-down iteration budgets used here, a ratio > 1
	// (as in data-free adversarial distillation practice) keeps the
	// student from being outrun by the generator. Default 1 (faithful).
	StudentSteps int
	// DistillBatch is the generator/distillation batch size (paper: 256;
	// scaled default 32).
	DistillBatch int
	// BatchSize is the device-side training batch size.
	BatchSize int
	// ZDim is the generator's noise dimensionality.
	ZDim int
	// DeviceLR, ServerLR are SGD learning rates (paper: 0.01).
	DeviceLR, ServerLR float64
	// GenLR is the generator's Adam learning rate (paper: 1e-3).
	GenLR float64
	// Momentum and WeightDecay apply to device-side SGD.
	Momentum, WeightDecay float64
	// Loss selects the zero-shot disagreement loss (default LossSL).
	Loss LossKind
	// ProxMu scales the ℓ2 proximal term of Eq. 9 (0 disables).
	ProxMu float64
	// ActiveFraction is the straggler parameter p: the fraction of
	// devices participating each round (default 1). Ignored when SampleK
	// is set.
	ActiveFraction float64
	// SampleK, when positive, selects exactly min(SampleK, devices)
	// participants per round (uniform-K partial participation, the
	// device-scale regime), overriding ActiveFraction.
	SampleK int
	// SampleWeighted, with SampleK, weights client selection by shard
	// size instead of sampling uniformly.
	SampleWeighted bool
	// Workers bounds the round scheduler's worker pool (0 = GOMAXPROCS).
	Workers int
	// Sequential runs device tasks inline on the caller's goroutine —
	// the reference scheduler the determinism tests compare against.
	Sequential bool
	// RoundDeadline is the wall-clock budget of each round's local phase;
	// devices that have not finished when it expires are dropped from
	// that round's aggregation (0 disables).
	RoundDeadline time.Duration
	// FailureRate injects per-device-round failures with this
	// probability, deterministically in (Seed, round, device).
	FailureRate float64
	// TeachersPerIter, when positive, makes every server distillation
	// iteration draw that many replica teachers for the ensemble loss —
	// instead of forwarding every registered replica — and transfer
	// knowledge back into a same-sized rotating window of replicas, so the
	// per-iteration server cost is O(TeachersPerIter) rather than
	// O(devices). 0 (the default) keeps the paper-exact full-ensemble
	// semantics, byte-identical to the pre-cohort server.
	TeachersPerIter int
	// TeacherSampling selects how per-iteration teacher subsets are drawn
	// when TeachersPerIter is set: "uniform" (the default) draws uniformly
	// without replacement and averages teachers equally; "weighted" draws
	// proportionally to device data size and weights the ensemble
	// disagreement loss by data size too. "weighted" requires
	// TeachersPerIter > 0 — the exact full-ensemble mode is defined as
	// byte-identical to the pre-cohort server, which a weighted mean would
	// break.
	TeacherSampling string
	// CohortReplicas bounds how many live replica modules each
	// architecture cohort retains between distillation phases. 0 (the
	// default) sizes the pools automatically: TeachersPerIter live modules
	// per cohort in sampled mode, the full cohort in exact mode. Lower
	// values cap server memory at the cost of rebuilding modules when an
	// iteration needs more replicas resident than the bound.
	CohortReplicas int
	// PipelineDepth is the round engine's bounded staleness. 0 (the
	// default) is the paper-exact barrier: round r+1's local phase waits
	// for round r's downloads. Depth D ≥ 1 launches round r+1's local
	// phase as soon as round r's uploads are staged, while the server
	// distills round r concurrently, with up to D server rounds
	// outstanding. Devices then train on bounded-stale parameters — round
	// r's local phase starts from the download published after round
	// r−1−D — which diverges from the paper's barrier semantics but hides
	// the server phase behind device work. The same staged engine runs
	// every depth, and DeviceAcc always scores the device models. For a
	// fixed depth and seed, metrics are byte-identical across worker
	// counts.
	PipelineDepth int
	// ReplicaStore bounds the hot set that holds the server's replica
	// slots (every slot is a codec container either way): "memory" (also
	// the "" default — an unbounded hot set, no spill file) or "spill" (an
	// LRU hot set per cohort shard backed by fixed-stride spill files,
	// bounding resident replica state by the hot-set size instead of the
	// device count — the million-device regime). Stored bytes are
	// identical either way, so fingerprints are byte-identical across
	// store modes.
	ReplicaStore string
	// ReplicaShards shards the server's cohort store: shard s owns every
	// device with id ≡ s (mod N), with its own cohorts, module pools, hot
	// sets and spill files, and checkouts fan out shard-local on the
	// worker pool. 0 or 1 keeps a single shard; fingerprints are identical
	// at any shard count.
	ReplicaShards int
	// HotSet bounds the resident entries of each cohort shard's hot set
	// under the spill store (and the virtual-device store's per-arch hot
	// set); the memory store's hot set is unbounded and ignores it. 0
	// sizes it automatically: the full cohort in exact full-ensemble mode,
	// a teacher-window multiple in sampled mode.
	HotSet int
	// SpillDir hosts the spill files ("" = a private temp directory,
	// removed on Close).
	SpillDir string
	// VirtualDevices simulates devices without keeping per-device live
	// models: a device's model is materialised from its seeded initial
	// state (or its last download, kept in a per-arch tiered store) only
	// while its local phase or evaluation runs, then evicted. Round
	// outcomes are byte-identical to live devices; requires
	// RoundDeadline = 0 (a straggler's partial local progress cannot
	// survive eviction).
	VirtualDevices bool
	// EvalDevices, when positive, evaluates per-device accuracy on only
	// the first EvalDevices devices instead of all of them (the scale
	// regime; DeviceAcc and MeanDeviceAcc cover exactly that subset).
	// 0 evaluates every device.
	EvalDevices int
	// StateCodec selects the state codec for server replica slots,
	// simulated upload/download payloads, and checkpoints: "float64" (the
	// identity encoding, also the "" default — byte-identical to the
	// pre-codec dense pipeline), "float16" (2 bytes/element), or "int8"
	// (per-tensor affine quantisation, 1 byte/element). Quantised codecs
	// cut resident server state up to 8× and wire traffic accounting
	// follows the codec's element width; in exchange every state that
	// crosses the wire or rests in a slot is rounded to the codec's grid,
	// which perturbs training (the scale sweep's codec table reports the
	// accuracy delta).
	StateCodec string
	// GlobalArch names the server model architecture (default "global").
	GlobalArch string
	// Seed drives all randomness in the run.
	Seed uint64
	// ProbeGradNorm records the mean ‖∇ₓL‖ w.r.t. generated inputs each
	// round (Figure 2 instrumentation).
	ProbeGradNorm bool
	// EvalEvery evaluates models every EvalEvery rounds (default 1);
	// the final round is always evaluated.
	EvalEvery int
	// CheckpointDir, when set, enables durable checkpoints: after every
	// CheckpointEvery-th finalised round the coordinator writes an atomic
	// (temp + fsync + rename), CRC-trailed checkpoint file into the
	// directory, keeping the KeepCheckpoints most recent. A crashed run
	// restarted with Resume picks up from the latest intact file.
	CheckpointDir string
	// CheckpointEvery is the round cadence of durable checkpoints
	// (default 1 — every finalised round; the final round is always
	// checkpointed).
	CheckpointEvery int
	// KeepCheckpoints bounds how many checkpoint files CheckpointDir
	// retains (default 3). Older files are the rollback targets when the
	// newest is torn or corrupt.
	KeepCheckpoints int
	// Resume makes Run first load the latest intact checkpoint from
	// CheckpointDir (rolling back over corrupt files) and continue from
	// its round cursor. With no checkpoint present the run starts fresh.
	Resume bool
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 2
	}
	if c.DistillIters == 0 {
		c.DistillIters = 30
	}
	if c.StudentSteps == 0 {
		c.StudentSteps = 1
	}
	if c.DistillBatch == 0 {
		c.DistillBatch = 32
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.ZDim == 0 {
		c.ZDim = 32
	}
	if c.DeviceLR == 0 {
		c.DeviceLR = 0.01
	}
	if c.ServerLR == 0 {
		c.ServerLR = 0.01
	}
	if c.GenLR == 0 {
		c.GenLR = 1e-3
	}
	if c.Loss == 0 {
		c.Loss = LossSL
	}
	if c.ActiveFraction == 0 {
		c.ActiveFraction = 1
	}
	if c.GlobalArch == "" {
		c.GlobalArch = "global"
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	if c.CheckpointDir != "" {
		if c.CheckpointEvery == 0 {
			c.CheckpointEvery = 1
		}
		if c.KeepCheckpoints == 0 {
			c.KeepCheckpoints = 3
		}
	}
	return c
}

// Teacher-sampling policies for Config.TeacherSampling.
const (
	// TeacherSamplingUniform draws teacher subsets uniformly without
	// replacement and averages them equally (also the "" default).
	TeacherSamplingUniform = "uniform"
	// TeacherSamplingWeighted draws teacher subsets proportionally to
	// device data size and weights the ensemble loss by data size.
	TeacherSamplingWeighted = "weighted"
)

// validateCohorts checks the cohort/teacher-sampling configuration.
func (c Config) validateCohorts() error {
	if c.TeachersPerIter < 0 {
		return fmt.Errorf("fedzkt: negative TeachersPerIter %d", c.TeachersPerIter)
	}
	if c.CohortReplicas < 0 {
		return fmt.Errorf("fedzkt: negative CohortReplicas %d", c.CohortReplicas)
	}
	switch c.TeacherSampling {
	case "", TeacherSamplingUniform, TeacherSamplingWeighted:
	default:
		return fmt.Errorf("fedzkt: unknown TeacherSampling %q (want %q or %q)",
			c.TeacherSampling, TeacherSamplingUniform, TeacherSamplingWeighted)
	}
	if c.TeacherSampling == TeacherSamplingWeighted && c.TeachersPerIter == 0 {
		return fmt.Errorf("fedzkt: TeacherSampling %q requires TeachersPerIter > 0 (the exact full-ensemble mode is unweighted by definition)", c.TeacherSampling)
	}
	if !validStoreMode(c.ReplicaStore) {
		return storeModeError(c.ReplicaStore)
	}
	if c.ReplicaShards < 0 {
		return fmt.Errorf("fedzkt: negative ReplicaShards %d", c.ReplicaShards)
	}
	if c.HotSet < 0 {
		return fmt.Errorf("fedzkt: negative HotSet %d", c.HotSet)
	}
	if c.EvalDevices < 0 {
		return fmt.Errorf("fedzkt: negative EvalDevices %d", c.EvalDevices)
	}
	return nil
}

// poolWorkers is the worker bound for the run's parallel-for loops
// (server transfer-back, evaluation): 1 when the reference sequential
// scheduler is requested, else the configured pool size.
func (c Config) poolWorkers() int {
	if c.Sequential {
		return 1
	}
	return c.Workers
}

// Coordinator orchestrates an in-process FedZKT federation: the devices
// plus the Server holding F, G and the replicas. Rounds execute on a
// sharded scheduler (internal/sched), so the federation can simulate
// N ≫ NumCPU devices with bounded concurrency.
type Coordinator struct {
	cfg     Config
	ds      *data.Dataset
	devices []*fed.Device
	server  *Server
	pool    *sched.Pool
	sampler sched.Sampler
	// codec encodes every simulated upload/download payload (the server
	// shares the same codec for its replica slots).
	codec codec.Codec
	// nextRound is the first round the next Run call executes: 1 for a
	// fresh coordinator, advanced past every finalised round by Run, and
	// restored by LoadCheckpoint, so a cancelled run can be resumed.
	nextRound int
	// hist accumulates every finalised round's metrics across Run calls
	// (and across checkpoint save/load), so History covers the whole
	// federation even when the process crashed and resumed mid-way.
	hist fed.History
	// resumed marks that Run already performed its Config.Resume load.
	resumed bool

	// Virtual-device mode (Config.VirtualDevices): device models exist
	// only while their local phase or evaluation runs; between rounds a
	// device is its last-downloaded state in devStore — one tiered store
	// per architecture, always float64-encoded so the materialised model
	// is bit-identical to a live device's. A virgin store entry is the
	// device's seeded initial state, rebuilt on demand.
	virtual       bool
	f64           codec.Codec
	devStore      map[string]*tieredSlots
	devCounters   storeCounters
	devSpillDir   string
	devSpillOwned bool

	// prevStore is the last round-boundary replica-store snapshot, diffed
	// into each round's metrics.
	prevStore ReplicaStoreStats

	// metrics is the coordinator's registry view (obsinstr.go): per-round
	// counters and phase histograms on the live metrics endpoint. Purely
	// observational — fingerprinted arithmetic never reads it.
	metrics *fedMetrics

	closeOnce sync.Once
	closeErr  error
}

// New builds a coordinator over dataset ds with one device per shard,
// assigning architectures archs[i] (cycled if shorter than shards).
func New(cfg Config, ds *data.Dataset, archs []string, shards [][]int) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("fedzkt: no device shards")
	}
	if len(archs) == 0 {
		return nil, fmt.Errorf("fedzkt: no architectures")
	}
	if cfg.ActiveFraction < 0 || cfg.ActiveFraction > 1 {
		return nil, fmt.Errorf("fedzkt: active fraction %v outside (0,1]", cfg.ActiveFraction)
	}
	if cfg.SampleK < 0 {
		return nil, fmt.Errorf("fedzkt: negative SampleK %d", cfg.SampleK)
	}
	if cfg.PipelineDepth < 0 {
		return nil, fmt.Errorf("fedzkt: negative PipelineDepth %d", cfg.PipelineDepth)
	}
	if cfg.VirtualDevices && cfg.RoundDeadline > 0 {
		return nil, fmt.Errorf("fedzkt: VirtualDevices requires RoundDeadline = 0 (a deadline straggler's partial local progress cannot survive model eviction)")
	}
	// Validate the scheduler configuration before the expensive device
	// build: at device scale, constructing a thousand models just to
	// reject a bad option would waste seconds.
	sampler, err := buildSampler(cfg, shards)
	if err != nil {
		return nil, err
	}
	pool, err := sched.NewPool(sched.Options{
		Workers:       cfg.Workers,
		Sequential:    cfg.Sequential,
		RoundDeadline: cfg.RoundDeadline,
		FailureRate:   cfg.FailureRate,
		FailureSeed:   cfg.Seed ^ 0xFA117A1E,
		// One step-scoped arena per pool worker: every device task running
		// on a worker draws its activations, backward scratch and batch
		// buffers from that worker's arena, so concurrent devices never
		// share scratch and a warmed-up local phase allocates (almost)
		// nothing. Arenas never change values — only where buffers live —
		// so round outcomes stay bit-identical for any worker count.
		WorkerScratch: func() any { return ag.NewArena() },
	})
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	in := model.Shape{C: ds.C, H: ds.H, W: ds.W}
	server, err := NewServer(cfg, in, ds.Classes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, ds: ds, server: server, pool: pool, sampler: sampler, codec: server.Codec(), nextRound: 1}
	c.metrics = newFedMetrics(obs.Default(), server)
	pool.RegisterMetrics(obs.Default())
	if cfg.VirtualDevices {
		if err := c.initVirtual(archs); err != nil {
			_ = server.Close()
			return nil, err
		}
	}
	for i := range shards {
		arch := archs[i%len(archs)]
		if len(shards[i]) == 0 {
			_ = c.Close()
			return nil, fmt.Errorf("fedzkt: device %d has an empty shard", i)
		}
		var dev *fed.Device
		var id int
		if cfg.VirtualDevices {
			// No model is built: the device materialises from its seeded
			// initial state on first participation, and the server's lazy
			// (nil-initial) registration defines the replica as exactly
			// that state — registration is O(1) per device under the
			// tiered store.
			dev = fed.NewDevice(i, arch, nil, data.NewSubset(ds, shards[i]))
			id, err = server.RegisterSized(arch, nil, len(shards[i]))
		} else {
			devModel, berr := model.Build(arch, in, ds.Classes, tensor.NewRand(cfg.Seed+uint64(1000+i)))
			if berr != nil {
				_ = c.Close()
				return nil, fmt.Errorf("fedzkt: device %d: %w", i, berr)
			}
			dev = fed.NewDevice(i, arch, devModel, data.NewSubset(ds, shards[i]))
			// Registration: the device announces its architecture, initial
			// parameters and data size; the server files the replica into
			// the matching architecture cohort.
			id, err = server.RegisterSized(arch, nn.CaptureState(devModel), len(shards[i]))
		}
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		if id != i {
			_ = c.Close()
			return nil, fmt.Errorf("fedzkt: device id mismatch: %d != %d", id, i)
		}
		c.devices = append(c.devices, dev)
	}
	return c, nil
}

// initVirtual sets up the virtual-device stores: one tiered store per
// architecture in use, always float64-encoded (the float64 container
// round trip is bit-exact, so a materialised model matches a live
// device's bit for bit regardless of the run's wire codec). Stores are
// created eagerly so the map is read-only once rounds run concurrently.
func (c *Coordinator) initVirtual(archs []string) error {
	c.virtual = true
	f64, err := codec.Get(codec.Float64)
	if err != nil {
		return fmt.Errorf("fedzkt: %w", err)
	}
	c.f64 = f64
	dir := c.cfg.SpillDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "fedzkt-devspill-*"); err != nil {
			return fmt.Errorf("fedzkt: creating device spill dir: %w", err)
		}
		c.devSpillOwned = true
	}
	c.devSpillDir = dir
	c.devStore = make(map[string]*tieredSlots)
	in := model.Shape{C: c.ds.C, H: c.ds.H, W: c.ds.W}
	for _, arch := range archs {
		if _, ok := c.devStore[arch]; ok {
			continue
		}
		arch := arch
		capFn := func() int {
			if c.cfg.HotSet > 0 {
				return c.cfg.HotSet
			}
			// Auto: cover one round's participants with slack, bounded
			// below so tiny federations never thrash.
			if k := 2 * c.cfg.SampleK; k > 256 {
				return k
			}
			return 256
		}
		init := func(id int) ([]byte, error) {
			m, err := model.Build(arch, in, c.ds.Classes, tensor.NewRand(c.cfg.Seed+uint64(1000+id)))
			if err != nil {
				return nil, err
			}
			return codec.Encode(c.f64, nn.CaptureState(m))
		}
		path := filepath.Join(dir, "dev-"+arch+".spill")
		c.devStore[arch] = newTieredSlots(path, capFn, init, &c.devCounters)
	}
	return nil
}

// materialiseDevice rebuilds device id's live model for the duration of a
// task: the seeded initial build, overlaid (via the download path, which
// also restores the proximal anchor) with the device's last-downloaded
// state when one exists. Runs on scheduler workers; the store serialises
// slot access internally.
func (c *Coordinator) materialiseDevice(id int) error {
	d := c.devices[id]
	in := model.Shape{C: c.ds.C, H: c.ds.H, W: c.ds.W}
	m, err := model.Build(d.Arch, in, c.ds.Classes, tensor.NewRand(c.cfg.Seed+uint64(1000+id)))
	if err != nil {
		return fmt.Errorf("fedzkt: materialising device %d: %w", id, err)
	}
	d.Model = m
	ts := c.devStore[d.Arch]
	if ts.virgin(id) {
		// Never downloaded: the seeded build is the device's exact state,
		// and a live device would have no proximal anchor yet either.
		return nil
	}
	enc, err := ts.get(id)
	if err != nil {
		return fmt.Errorf("fedzkt: materialising device %d: %w", id, err)
	}
	return d.DownloadPayload(enc)
}

// DeviceStoreStats snapshots the virtual-device store (zero-valued, mode
// "memory", when VirtualDevices is off).
func (c *Coordinator) DeviceStoreStats() ReplicaStoreStats {
	st := ReplicaStoreStats{Mode: ReplicaStoreMemory, Shards: 1}
	if !c.virtual {
		return st
	}
	st.Mode = ReplicaStoreSpill
	st.Hits = c.devCounters.hits.Load()
	st.Misses = c.devCounters.misses.Load()
	st.InitBuilds = c.devCounters.initBuilds.Load()
	st.Evictions = c.devCounters.evictions.Load()
	for _, ts := range c.devStore {
		ts.accumulateStats(&st)
	}
	return st
}

// Close releases the server (spill files, prefetcher) and the
// virtual-device stores. Idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.server.Close()
		for _, ts := range c.devStore {
			if err := ts.close(); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
		if c.devSpillOwned {
			if err := os.RemoveAll(c.devSpillDir); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
	})
	return c.closeErr
}

// buildSampler selects the client-sampling policy from the config:
// uniform-K or weighted-by-data when SampleK is set, otherwise the
// paper's active-fraction straggler model.
func buildSampler(cfg Config, shards [][]int) (sched.Sampler, error) {
	if cfg.SampleK > 0 {
		if cfg.SampleWeighted {
			weights := make([]int, len(shards))
			for i, s := range shards {
				weights[i] = len(s)
			}
			s, err := sched.NewWeightedByData(weights, cfg.SampleK)
			if err != nil {
				return nil, fmt.Errorf("fedzkt: %w", err)
			}
			return s, nil
		}
		s, err := sched.NewUniformK(cfg.SampleK)
		if err != nil {
			return nil, fmt.Errorf("fedzkt: %w", err)
		}
		return s, nil
	}
	if cfg.SampleWeighted {
		return nil, fmt.Errorf("fedzkt: SampleWeighted requires SampleK > 0")
	}
	s, err := sched.NewFraction(cfg.ActiveFraction)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	return s, nil
}

// Devices exposes the coordinator's devices (read-only use intended).
func (c *Coordinator) Devices() []*fed.Device { return c.devices }

// Global exposes the server's global model F.
func (c *Coordinator) Global() nn.Module { return c.server.Global() }

// Generator exposes the server's generator G.
func (c *Coordinator) Generator() *model.Generator { return c.server.Generator() }

// Server exposes the server core (used by the networked runtime and
// inspection tooling).
func (c *Coordinator) Server() *Server { return c.server }

// Pool exposes the round scheduler's pool (for its cumulative stats).
func (c *Coordinator) Pool() *sched.Pool { return c.pool }

// Sampler exposes the client-sampling policy in effect.
func (c *Coordinator) Sampler() sched.Sampler { return c.sampler }

// Run executes the remaining communication rounds (Algorithm 1) and
// returns their per-round metrics history. A fresh coordinator starts at
// round 1; after a cancelled run (or LoadCheckpoint) Run resumes from the
// first unfinalised round, first reconciling every device to its server
// replica so both resume paths restart from the same well-defined state.
// A resume is consistent, not a bit-exact replay of an uninterrupted
// run: work the cancelled round already did — absorbed uploads, partial
// distillation progress, device epochs — is retained and the round is
// re-run on top of it (see SaveCheckpoint).
//
// Every PipelineDepth runs the staged round engine (engine.go): depth 0 is
// the paper-exact barrier, and depth ≥ 1 overlaps server distillation
// with the next rounds' local phases. Each round is finalised — device
// accuracy, history, checkpoint — on the calling goroutine once its
// downloads are applied. ctx cancellation stops at the next stage
// boundary — including between distillation iterations — and returns the
// wrapped context error alongside the history of fully finalised rounds.
func (c *Coordinator) Run(ctx context.Context) (fed.History, error) {
	if c.cfg.Resume && !c.resumed {
		c.resumed = true
		if err := c.resumeFromDir(); err != nil {
			return nil, err
		}
	}
	if c.nextRound > 1 && c.nextRound <= c.cfg.Rounds {
		// Resuming mid-federation: a cancelled run may have left devices
		// ahead of the last finalised round (several rounds ahead at
		// PipelineDepth ≥ 1, with no downloads applied). Restart them
		// from the server's latest knowledge instead.
		if err := c.reconcileDevices(); err != nil {
			return nil, err
		}
	}
	return c.runRounds(ctx)
}

// reconcileDevices installs every device's server replica state into the
// device model — the canonical post-round state a download would have
// delivered — collapsing whatever in-flight local progress a cancelled
// round left behind.
func (c *Coordinator) reconcileDevices() error {
	for _, d := range c.devices {
		if c.virtual {
			ref, err := c.server.cohorts.ref(d.ID)
			if err != nil {
				return fmt.Errorf("fedzkt: reconciling device %d: %w", d.ID, err)
			}
			if c.server.cohorts.virgin(ref) && c.devStore[d.Arch].virgin(d.ID) {
				// Both sides still hold the seeded initial state (a virgin
				// slot's content is defined as exactly that), so there is
				// nothing to copy — the skip that makes million-device
				// resume O(touched devices), not O(devices).
				continue
			}
		}
		p, _, err := c.server.ReplicaPayload(d.ID)
		if err != nil {
			return fmt.Errorf("fedzkt: reconciling device %d: %w", d.ID, err)
		}
		if err := c.applyDownload(d.ID, p); err != nil {
			return fmt.Errorf("fedzkt: reconciling device %d: %w", d.ID, err)
		}
	}
	return nil
}

// roundSampler returns the client-sampling RNG positioned at c.nextRound:
// the stream is sequential across rounds, so a resumed run replays the
// draws of the already-finalised rounds to stay on the same sequence an
// uninterrupted run would see.
func (c *Coordinator) roundSampler() *rand.Rand {
	roundRNG := tensor.NewRand(c.cfg.Seed + 99)
	for r := 1; r < c.nextRound; r++ {
		c.sampler.Sample(len(c.devices), roundRNG)
	}
	return roundRNG
}

// finishRoundStats folds the round's replica-store activity into its
// metrics: the delta of the server store's counters since the last round
// boundary, plus the drained replica-fault ids. None of these fields are
// fingerprinted — store traffic depends on hot-set sizing and prefetch
// timing, which the arithmetic is independent of by construction.
func (c *Coordinator) finishRoundStats(m *fed.RoundMetrics) {
	// Drain in-flight prefetch hints first: a hint processed after this
	// snapshot would add reads to the cumulative counters that no round's
	// delta reports, and the per-round sums would drift from the totals.
	c.server.cohorts.quiescePrefetch()
	st := c.server.ReplicaStoreStats()
	d := st.Sub(c.prevStore)
	c.prevStore = st
	m.StoreHits = d.Hits
	m.StoreMisses = d.Misses
	m.StorePrefetched = d.PrefetchHits
	m.SpillReadBytes = d.SpillReadBytes
	m.SpillWriteBytes = d.SpillWriteBytes
	m.ReplicaFaults = c.server.TakeReplicaFaults()
}

// evaluated reports whether round is an evaluation round.
func (c *Coordinator) evaluated(round int) bool {
	return round%c.cfg.EvalEvery == 0 || round == c.cfg.Rounds
}

// evalIDs returns the device ids per-device evaluation covers: every
// device, or the deterministic EvalDevices-long prefix in the scale
// regime.
func (c *Coordinator) evalIDs() []int {
	n := len(c.devices)
	if c.cfg.EvalDevices > 0 && c.cfg.EvalDevices < n {
		n = c.cfg.EvalDevices
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// deviceAccs evaluates per-device test accuracy on the device models:
// live models directly, or — in virtual mode —
// materialised copies of each evaluated device's stored state (its last
// download, or the seeded initial state when virgin), which is exactly
// what the live model would hold at this round boundary.
func (c *Coordinator) deviceAccs() ([]float64, error) {
	ids := c.evalIDs()
	if !c.virtual {
		return fed.EvaluateAllParallel(c.devices[:len(ids)], c.ds, 64, c.cfg.poolWorkers()), nil
	}
	accs := make([]float64, len(ids))
	in := model.Shape{C: c.ds.C, H: c.ds.H, W: c.ds.W}
	var mu sync.Mutex
	var firstErr error
	sched.ForEachWorker(len(ids), c.cfg.poolWorkers(), func(i, _ int) {
		id := ids[i]
		d := c.devices[id]
		m, err := model.Build(d.Arch, in, c.ds.Classes, tensor.NewRand(c.cfg.Seed+uint64(1000+id)))
		if err == nil {
			ts := c.devStore[d.Arch]
			if !ts.virgin(id) {
				var enc []byte
				if enc, err = ts.get(id); err == nil {
					err = codec.DecodeInto(enc, nn.CaptureState(m))
				}
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("fedzkt: evaluating device %d: %w", id, err)
			}
			mu.Unlock()
			return
		}
		accs[i] = fed.Evaluate(m, c.ds, 64)
	})
	return accs, firstErr
}

// applyDownload installs one downloaded codec container into its device:
// the live model, or — in virtual mode — the device's store slot,
// re-encoded as float64 (the model was already evicted after upload
// staging; a live device's model would hold exactly these values after
// the download, which is what the next materialisation reproduces).
func (c *Coordinator) applyDownload(id int, p []byte) error {
	if !c.virtual {
		return c.devices[id].DownloadPayload(p)
	}
	b, _, err := codec.Reencode(c.f64, p)
	if err == nil {
		err = c.devStore[c.devices[id].Arch].putBytes(id, b)
	}
	if err != nil {
		return fmt.Errorf("fedzkt: device %d download: %w", id, err)
	}
	return nil
}

// localPhase runs Algorithm 2 on every sampled device via the sharded
// scheduler and returns the device ids that completed within the round
// together with their uploaded states in wire form — codec containers
// encoded with the run's codec, exactly the bytes a real uplink would
// carry — in ascending-id order. The uploads
// are staged for the server but not yet absorbed: the engine hands them to
// the server stage so they cannot race an in-flight distillation. Each task
// touches only its own device, so the round's outcome is identical for
// any worker count.
func (c *Coordinator) localPhase(ctx context.Context, round int, active []int, m *fed.RoundMetrics) ([]int, [][]byte, error) {
	cfg := c.cfg
	local := fed.LocalConfig{
		Epochs:      cfg.LocalEpochs,
		BatchSize:   cfg.BatchSize,
		LR:          cfg.DeviceLR,
		Momentum:    cfg.Momentum,
		WeightDecay: cfg.WeightDecay,
		ProxMu:      cfg.ProxMu,
	}
	tasks := make([]sched.Task, len(active))
	for pos, id := range active {
		id := id
		tasks[pos] = sched.Task{Device: id, Run: func(ctx context.Context) error {
			rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<20 + uint64(id)<<4 + 0x5EED))
			if c.virtual {
				// Materialise the device's model from its stored state for
				// the duration of this round (evicted after upload staging).
				if err := c.materialiseDevice(id); err != nil {
					return err
				}
			}
			// The task owns its device for the duration of the run, so
			// borrowing the worker's arena through the device is race-free.
			c.devices[id].Scratch, _ = sched.Scratch(ctx).(*ag.Arena)
			_, err := c.devices[id].LocalUpdate(local, rng)
			c.devices[id].Scratch = nil
			return err
		}}
	}
	completed := make([]int, 0, len(active))
	for _, r := range c.pool.RunRound(ctx, round, tasks) {
		switch r.Status {
		case sched.StatusCompleted:
			completed = append(completed, r.Device)
		case sched.StatusDropped:
			m.Dropped = append(m.Dropped, r.Device)
		case sched.StatusInjected:
			m.Injected = append(m.Injected, r.Device)
		case sched.StatusFailed:
			// A panicking device task (chaos-injected or a genuine bug in
			// one device's arithmetic) is a per-device fault, not a
			// process death: drop the device from this round's aggregation
			// and record the fault alongside the corrupt-replica faults.
			var pe *sched.PanicError
			if errors.As(r.Err, &pe) {
				m.Dropped = append(m.Dropped, r.Device)
				c.server.cohorts.noteFault(r.Device, r.Err)
				continue
			}
			return nil, nil, fmt.Errorf("fedzkt: local phase device %d: %w", r.Device, r.Err)
		}
	}
	uploads := make([][]byte, len(completed))
	for i, id := range completed {
		payload, numel, err := c.devices[id].UploadPayload(c.codec)
		if err != nil {
			return nil, nil, err
		}
		uploads[i] = payload
		m.BytesUp += fed.WireBytes(numel, c.codec.Width())
	}
	if c.virtual {
		// The uploads are staged (independent copies); drop the live
		// models. The trained state is deliberately not written back to the
		// store: the device's next state is its download after this round's
		// transfer-back, which applyDownload stores — exactly the state a
		// live model would hold at the next round boundary. Injected
		// devices never materialised, and deadline stragglers cannot exist
		// (VirtualDevices requires RoundDeadline = 0).
		for _, id := range completed {
			c.devices[id].Evict()
		}
	}
	return completed, uploads, nil
}

// absorbUploads installs a round's staged uploads into the server
// replicas, in the staged (ascending-id) order.
func (c *Coordinator) absorbUploads(completed []int, uploads [][]byte) error {
	for i, id := range completed {
		if err := c.server.AbsorbPayload(id, uploads[i]); err != nil {
			return fmt.Errorf("fedzkt: upload device %d: %w", id, err)
		}
	}
	return nil
}
