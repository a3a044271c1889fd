package fedzkt

import (
	"context"
	"fmt"
	"os"
	"sync"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/optim"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// Server is the FedZKT server side in isolation: the global model F, the
// generator G, and one replica per registered device, organised into
// architecture cohorts (see cohort.go). It implements the two ServerUpdate
// phases of Algorithm 3 and is shared by the in-process Coordinator and
// the networked transport binaries.
//
// With TeachersPerIter = 0 (the default) the server runs the paper-exact
// full-ensemble semantics, byte-identical to the pre-cohort
// implementation. With TeachersPerIter = T > 0 each distillation iteration
// draws T replica teachers (uniformly or weighted by device data size) and
// transfers knowledge back into a rotating T-wide window of replicas, so
// the per-iteration server cost is O(T) rather than O(devices).
//
// Every replica slot is a codec container in the cohort's slot store
// (replicastore.go). With ReplicaStore = "spill" the hot set is bounded
// and the server holds memory proportional to the hot-set size rather
// than the device count; Close releases the spill files. The cohort
// store may additionally be sharded (ReplicaShards).
type Server struct {
	cfg Config
	in  model.Shape
	cls int

	cohorts *cohortSet
	codec   codec.Codec

	// spillDir hosts the tiered store's spill files; owned (and removed on
	// Close) when the server created it itself.
	spillDir      string
	spillDirOwned bool
	closeOnce     sync.Once
	closeErr      error

	global      nn.Module
	gen         *model.Generator
	globalOpt   *optim.SGD
	genOpt      *optim.Adam
	globalSched *optim.MultiStepLR
	genSched    *optim.MultiStepLR

	// phase is the step-scoped arena of the single-goroutine distillation
	// phases (generator/global steps, the shared generated batch and
	// distillation targets of the transfer-back, global evaluation). It is
	// reset at each step boundary — after the optimiser consumed the
	// gradients, and only once concurrent readers of the iteration's
	// shared tensors have joined.
	phase *ag.Arena
	// workerArenas are the per-worker arenas of the parallel sections
	// (adversarial teacher forwards, transfer-back replica steps, replica
	// evaluation), grown on the caller's goroutine before a fan-out so
	// workers never mutate the slice. Worker w is the only goroutine
	// touching workerArenas[w] during a fan-out.
	workerArenas []*ag.Arena
	// colMemo shares the im2col lowering of each iteration's generated
	// batch across the concurrent teacher/replica forwards; owned by (and
	// allocated from) the phase arena, rebound per step and cleared before
	// every phase reset.
	colMemo *ag.ColMemo
	// outScratch is the reusable teacher-output slice of the adversarial
	// fan-out; holds only pointers, overwritten every iteration.
	outScratch []*ag.Variable
}

// NewServer constructs the server side for a dataset signature (input
// shape + class count). Devices are registered afterwards. Call Close
// when done: it stops the replica prefetcher and releases the spill
// store's files.
func NewServer(cfg Config, in model.Shape, classes int) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateCohorts(); err != nil {
		return nil, err
	}
	cdc, err := codec.Get(cfg.StateCodec)
	if err != nil {
		return nil, fmt.Errorf("fedzkt: %w", err)
	}
	global, err := model.Build(cfg.GlobalArch, in, classes, tensor.NewRand(cfg.Seed+7))
	if err != nil {
		return nil, fmt.Errorf("fedzkt: global model: %w", err)
	}
	retain := cfg.CohortReplicas
	if retain == 0 {
		// Automatic retention: sampled mode never needs more than
		// TeachersPerIter live modules per cohort resident at once; exact
		// mode keeps the full cohort pooled (legacy behaviour, no per-round
		// rebuilds).
		retain = cfg.TeachersPerIter
	}
	tiered := cfg.ReplicaStore == ReplicaStoreSpill
	spillDir, spillDirOwned := cfg.SpillDir, false
	if tiered && spillDir == "" {
		if spillDir, err = os.MkdirTemp("", "fedzkt-spill-*"); err != nil {
			return nil, fmt.Errorf("fedzkt: creating spill dir: %w", err)
		}
		spillDirOwned = true
	}
	s := &Server{
		cfg:           cfg,
		in:            in,
		cls:           classes,
		codec:         cdc,
		spillDir:      spillDir,
		spillDirOwned: spillDirOwned,
		global:        global,
		gen:           model.NewGenerator(cfg.ZDim, in, tensor.NewRand(cfg.Seed+13)),
		phase:         ag.NewArena(),
	}
	s.cohorts = newCohortSet(cohortOptions{
		lr:       cfg.ServerLR,
		retain:   retain,
		codec:    cdc,
		shards:   cfg.ReplicaShards,
		workers:  cfg.poolWorkers(),
		tiered:   tiered,
		hotSet:   cfg.HotSet,
		teachers: cfg.TeachersPerIter,
		spillDir: spillDir,
		// A virgin slot's content is defined as the device's seeded
		// registration state, rebuilt here on first touch — bit-identical
		// to what eager registration would have stored.
		initState: func(arch string, id int) (nn.StateDict, error) {
			m, err := model.Build(arch, in, classes, tensor.NewRand(cfg.Seed+uint64(1000+id)))
			if err != nil {
				return nil, err
			}
			return nn.CaptureState(m), nil
		},
	})
	s.colMemo = ag.NewColMemo(s.phase)
	s.phase.ShareColMemo(s.colMemo)
	// Large matmuls fan out over the process-wide kernel gang from here on;
	// exact-mode results are bit-identical for any gang width.
	sched.UseKernelGang()
	s.globalOpt = optim.NewSGD(global.Params(), cfg.ServerLR, 0.9, 0)
	s.genOpt = optim.NewAdam(s.gen.Params(), cfg.GenLR)
	totalIters := cfg.Rounds * cfg.DistillIters
	s.globalSched = optim.PaperSchedule(s.globalOpt, totalIters)
	s.genSched = optim.PaperSchedule(s.genOpt, totalIters)
	return s, nil
}

// Close stops the replica prefetcher and releases the spill store's
// files (removing the spill directory when the server created it).
// Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.cohorts.close()
		if s.spillDirOwned {
			if err := os.RemoveAll(s.spillDir); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Global exposes the global model F.
func (s *Server) Global() nn.Module { return s.global }

// Generator exposes the generator G.
func (s *Server) Generator() *model.Generator { return s.gen }

// NumDevices returns the number of registered devices.
func (s *Server) NumDevices() int { return s.cohorts.numDevices() }

// NumCohorts returns the number of distinct registered architectures.
func (s *Server) NumCohorts() int { return s.cohorts.numCohorts() }

// ReplicaShards returns the cohort-store shard count in effect.
func (s *Server) ReplicaShards() int { return s.cohorts.numShards() }

// LiveReplicas returns how many live replica modules the cohort pools
// currently retain — the server-memory quantity the cohort refactor
// bounds (per-device parameter data always stays resident in the slots).
func (s *Server) LiveReplicas() int { return s.cohorts.liveModules() }

// Codec returns the state codec encoding this server's replica slots,
// wire payloads and checkpoints.
func (s *Server) Codec() codec.Codec { return s.codec }

// ResidentStateBytes returns the total resident size of every device's
// replica slot: the codec-container bytes of the hot set (spilled and
// never-touched members cost nothing). This is the per-device memory
// quantity the quantised codecs shrink up to 8× and the spill store
// bounds; live pooled modules are accounted separately via LiveReplicas.
func (s *Server) ResidentStateBytes() int64 { return s.cohorts.stateBytes() }

// ReplicaStoreStats snapshots the replica store: residency, hot-set
// hit rate, prefetch overlap and spill traffic. Counters are cumulative;
// callers diff snapshots (ReplicaStoreStats.Sub) for per-round deltas.
func (s *Server) ReplicaStoreStats() ReplicaStoreStats { return s.cohorts.storeStats() }

// TakeReplicaFaults drains the ids of members dropped from distillation
// or evaluation because their stored replica bytes failed to load or
// decode (a corrupt spill record degrades the round instead of killing
// the process). Sorted ascending, deduped.
func (s *Server) TakeReplicaFaults() []int { return s.cohorts.takeFaults() }

// Register adds a device with the given architecture and initial state,
// returning its assigned id, with a data-size weight of 1. See
// RegisterSized.
func (s *Server) Register(arch string, initial nn.StateDict) (int, error) {
	return s.RegisterSized(arch, initial, 1)
}

// RegisterSized adds a device with the given architecture, initial state,
// and data-size weight (typically its shard size), returning its assigned
// id. The server files the device into its architecture cohort: an
// initial state is validated against the architecture's signature (the
// same names and element counts nn.LoadState demands) and encoded
// straight into the replica slot. With a nil initial state the replica
// keeps a seeded random initialisation and registration is O(1): nothing
// is stored until the slot is first touched (virgin slots reconstruct
// the seeded state on demand, bit-identically). Only the first
// registration of an architecture builds a module, to capture its
// signature.
func (s *Server) RegisterSized(arch string, initial nn.StateDict, dataSize int) (int, error) {
	id := s.cohorts.numDevices()
	if dataSize < 0 {
		return 0, fmt.Errorf("fedzkt: register device %d: negative data size %d", id, dataSize)
	}
	build := func() (nn.Module, error) {
		// Pool modules are decoded into before every use, so their own
		// initial values never matter; the RNG only has to be valid.
		return model.Build(arch, s.in, s.cls, tensor.NewRand(s.cfg.Seed+uint64(2000+id)))
	}
	got, err := s.cohorts.register(arch, initial, dataSize, build)
	if err != nil {
		return 0, fmt.Errorf("fedzkt: register device %d: %w", id, err)
	}
	return got, nil
}

// Absorb installs a device's uploaded parameters into its server replica,
// validating the state-dict keys and tensor sizes against the registered
// architecture so a drifted peer fails loudly. The upload is encoded into
// the replica slot with the server's codec.
func (s *Server) Absorb(id int, upload nn.StateDict) error {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return fmt.Errorf("fedzkt: absorb: %w", err)
	}
	if err := s.cohorts.installDict(ref, upload); err != nil {
		return fmt.Errorf("fedzkt: absorb device %d: %w", id, err)
	}
	return nil
}

// AbsorbPayload installs a device's uploaded codec container into its
// server replica, with the same strict layout validation as Absorb. The
// container is self-describing, so payloads survive codec configuration
// changes between peers; the validated bytes of a same-codec payload are
// adopted verbatim — the wire format is the slot format — while a
// foreign-dtype payload is re-encoded so the slot keeps the configured
// codec's invariants.
func (s *Server) AbsorbPayload(id int, payload []byte) error {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return fmt.Errorf("fedzkt: absorb: %w", err)
	}
	if err := s.cohorts.installPayload(ref, payload); err != nil {
		return fmt.Errorf("fedzkt: absorb device %d: %w", id, err)
	}
	return nil
}

// ReplicaState returns a dense deep copy of device id's replica
// parameters, decoded from the slot, so the caller sees exactly the
// values a download would deliver.
func (s *Server) ReplicaState(id int) (nn.StateDict, error) {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return nil, err
	}
	return s.cohorts.stateOf(ref)
}

// ReplicaPayload returns device id's replica slot in wire form — a copy
// of the codec container a download carries — plus its element count
// for traffic accounting.
func (s *Server) ReplicaPayload(id int) ([]byte, int, error) {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return nil, 0, err
	}
	return s.cohorts.payloadOf(ref)
}

// PrefetchReplicas hints that the given device ids will be checked out or
// downloaded soon, warming the store's hot sets in the background. Never
// blocks; values are unaffected.
func (s *Server) PrefetchReplicas(ids []int) { s.cohorts.prefetch(ids) }

// DeviceArch returns the architecture device id registered with.
func (s *Server) DeviceArch(id int) (string, error) {
	ref, err := s.cohorts.ref(id)
	if err != nil {
		return "", err
	}
	return ref.cohort.arch, nil
}

// Distill runs both ServerUpdate phases of Algorithm 3 for one round:
// adversarial zero-shot distillation into F, then transfer back into the
// replicas. It returns the mean per-sample ‖∇ₓL‖ when probing is enabled.
// ctx is checked between distillation iterations, so cancelling it stops
// a long phase mid-flight (returning the wrapped context error) instead
// of only between rounds; the phase's optimiser state stays wherever the
// last completed iteration left it.
func (s *Server) Distill(ctx context.Context, round int) (float64, error) {
	if s.cohorts.numDevices() == 0 {
		return 0, fmt.Errorf("fedzkt: distill with no registered devices")
	}
	advSpan := tracer().Begin("distill", "adversarial_phase").WithRound(round)
	gn, err := s.adversarialPhase(ctx, round)
	advSpan.End()
	if err != nil {
		return 0, err
	}
	tbSpan := tracer().Begin("distill", "transfer_back").WithRound(round)
	err = s.transferBackPhase(ctx, round)
	tbSpan.End()
	if err != nil {
		return 0, err
	}
	return gn, nil
}

// ensureWorkerArenas grows the per-worker arena pool to n on the calling
// goroutine, before a fan-out references them. Every worker arena shares
// the server's column memo, so concurrent forwards over one batch lower
// it exactly once.
func (s *Server) ensureWorkerArenas(n int) {
	for len(s.workerArenas) < n {
		wa := ag.NewArena()
		wa.ShareColMemo(s.colMemo)
		s.workerArenas = append(s.workerArenas, wa)
	}
}

// resetStep recycles everything one adversarial step allocated: the
// column memo is cleared first (its entries live in the phase arena),
// then the worker arenas holding the teachers' tapes, then the phase
// arena itself — the ordering ag.convColKey's identity keying requires.
func (s *Server) resetStep() {
	s.colMemo.Rebind(nil)
	for _, wa := range s.workerArenas {
		wa.Reset()
	}
	s.phase.Reset()
}

// teachersPerIter returns the effective per-iteration teacher count: 0 for
// the exact full-ensemble mode, otherwise TeachersPerIter clamped to the
// federation size.
func (s *Server) teachersPerIter() int {
	t := s.cfg.TeachersPerIter
	if n := s.cohorts.numDevices(); t > n {
		t = n
	}
	return t
}

// teacherSampler builds the per-iteration teacher-subset policy from the
// configured sampling mode, reusing the round scheduler's client-sampling
// policies.
func (s *Server) teacherSampler(t int) sched.Sampler {
	if s.cfg.TeacherSampling == TeacherSamplingWeighted {
		smp, err := sched.NewWeightedByData(s.cohorts.weights(), t)
		if err != nil {
			panic(fmt.Sprintf("fedzkt: teacher sampler: %v", err)) // weights validated at registration
		}
		return smp
	}
	smp, err := sched.NewUniformK(t)
	if err != nil {
		panic(fmt.Sprintf("fedzkt: teacher sampler: %v", err)) // t > 0 by construction
	}
	return smp
}

// teacherWeights returns the normalised data-size weights of the given
// leases when weighted teacher sampling is configured, or nil for the
// uniform (paper-exact) ensemble mean.
func (s *Server) teacherWeights(leases []*replicaLease) []float64 {
	if s.cfg.TeacherSampling != TeacherSamplingWeighted {
		return nil
	}
	w := make([]float64, len(leases))
	total := 0.0
	for i, l := range leases {
		w[i] = float64(l.member.weight)
		total += w[i]
	}
	if total == 0 {
		// Every drawn teacher has zero data weight: fall back to the
		// uniform mean rather than dividing by zero.
		return nil
	}
	return w
}

// adversarialPhase is the first half of Algorithm 3: alternating generator
// (max) and global model (min) steps on the disagreement loss over the
// frozen teacher ensemble — the full ensemble in exact mode, a freshly
// sampled T-subset per iteration in sampled mode. In sampled mode the
// teacher draw comes from a replayable sample stream, so the next
// iteration's subset is known in advance and handed to the replica
// prefetcher while the current iteration computes.
func (s *Server) adversarialPhase(ctx context.Context, round int) (float64, error) {
	cfg := s.cfg
	rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<24 + 0xADE))

	t := s.teachersPerIter()
	var stream *sched.SampleStream
	if t > 0 {
		// The teacher draw uses its own stream so the generator's z draws
		// stay on the same sequence as the exact mode. Peeking only
		// materialises draws the loop would make anyway, so the sequence —
		// hence the fingerprint — is identical with prefetching on or off.
		teacherRNG := tensor.NewRand(cfg.Seed ^ (uint64(round)<<24 + 0x7EAC))
		stream = sched.NewSampleStream(s.teacherSampler(t), s.cohorts.numDevices(), teacherRNG)
		s.cohorts.prefetch(stream.Peek(0))
	}

	// Teachers are fixed functions this round: frozen and in eval mode.
	// In exact mode the whole ensemble stays resident for the phase, as in
	// the pre-cohort implementation.
	var phaseLeases []*replicaLease
	if t == 0 {
		phaseLeases = compactLeases(s.cohorts.checkout(s.cohorts.allIDs(), false, false))
		// Read-only leases release without I/O, so the error is always nil.
		defer func() { _ = s.cohorts.release(phaseLeases) }()
	}
	s.gen.SetTraining(true)

	gradNormSum, gradNormCount := 0.0, 0

	for it := 0; it < cfg.DistillIters; it++ {
		// Between iterations every flag toggled below is back in its
		// steady state, so this is the one safe bail-out point.
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("fedzkt: adversarial phase cancelled at iteration %d of round %d: %w", it, round, err)
		}
		iterSpan := tracer().Begin("distill", "distill_iteration").WithRound(round).WithTID(it)
		teachers := phaseLeases
		if t > 0 {
			ids := stream.Next()
			// Warm the next iteration's subset while this one computes.
			// The final iteration peeks one draw past the phase, which only
			// advances the phase-local teacher RNG.
			s.cohorts.prefetch(stream.Peek(0))
			teachers = compactLeases(s.cohorts.checkout(ids, false, false))
		}
		weights := s.teacherWeights(teachers)

		// --- Generator step: maximise disagreement (lines 4-7). ---
		// F is a fixed function during the adversary's move: frozen
		// parameters and frozen batch-norm statistics, so the generator
		// optimises a stationary objective and F's running statistics
		// track only the batches F itself trains on. The whole step —
		// noise, activations, backward scratch, the tape — lives in the
		// phase arena and is recycled after the optimiser step.
		nn.SetTrainable(s.global, false)
		s.global.SetTraining(false)
		z := ag.ConstIn(s.phase, s.gen.SampleZIn(s.phase.Tensors(), cfg.DistillBatch, rng))
		x := s.gen.Forward(z)
		s.colMemo.Rebind(x.Value())
		loss := s.disagreement(x, teachers, weights)
		lg := ag.Scale(-1, loss)
		s.genOpt.ZeroGrad()
		ag.Backward(lg)
		if cfg.ProbeGradNorm && x.Grad() != nil {
			// ‖∇ₓL‖ per sample; LG = −L so the norm is identical.
			gradNormSum += tensor.Norm2(x.Grad()) / float64(cfg.DistillBatch)
			gradNormCount++
		}
		s.genOpt.Step()
		s.resetStep()
		nn.SetTrainable(s.global, true)
		s.global.SetTraining(true)

		// --- Global model step(s): minimise disagreement (lines 9-12),
		// against the same teacher subset as this iteration's generator
		// step. ---
		nn.SetTrainable(s.gen, false)
		for st := 0; st < cfg.StudentSteps; st++ {
			z = ag.ConstIn(s.phase, s.gen.SampleZIn(s.phase.Tensors(), cfg.DistillBatch, rng))
			x = s.gen.Forward(z)
			s.colMemo.Rebind(x.Value())
			loss = s.disagreement(x, teachers, weights)
			s.globalOpt.ZeroGrad()
			ag.Backward(loss)
			s.globalOpt.Step()
			s.resetStep()
		}
		nn.SetTrainable(s.gen, true)

		if t > 0 {
			_ = s.cohorts.release(teachers) // read-only: cannot fail
		}
		s.globalSched.Tick()
		s.genSched.Tick()
		iterSpan.End()
	}
	if gradNormCount == 0 {
		return 0, nil
	}
	return gradNormSum / float64(gradNormCount), nil
}

// disagreement evaluates L(F(x), f_ens(x)) over the resident teacher
// leases, in lease order (ascending device id).
func (s *Server) disagreement(x *ag.Variable, teachers []*replicaLease, weights []float64) *ag.Variable {
	student := s.global.Forward(x)
	outs := s.teacherOuts(x, teachers)
	return DisagreementWeighted(s.cfg.Loss, student, outs, weights)
}

// teacherOuts runs the T frozen teacher forwards of one distillation
// iteration, fanned out across the configured workers. Each worker tapes
// its teachers on its own arena through an ag.MirrorIn of the shared
// batch — a pass-through node whose backward is bit-identical to
// accumulating into x directly — and the batch's im2col lowering is
// built once in the shared column memo instead of once per forward. The
// result slice is index-ordered, the loss combines it in that order, and
// each tape's topology is independent of which worker taped it, so the
// loss and every gradient are byte-identical for any worker count
// (including the inline workers=1 path).
func (s *Server) teacherOuts(x *ag.Variable, teachers []*replicaLease) []*ag.Variable {
	if cap(s.outScratch) < len(teachers) {
		s.outScratch = make([]*ag.Variable, len(teachers))
	}
	outs := s.outScratch[:len(teachers)]
	workers := s.cfg.poolWorkers()
	s.ensureWorkerArenas(sched.EffectiveWorkers(len(teachers), workers))
	sched.ForEachWorker(len(teachers), workers, func(i, w int) {
		outs[i] = teachers[i].slot.module.Forward(ag.MirrorIn(s.workerArenas[w], x))
	})
	return outs
}

// transferBackIDs returns the replica ids iteration it of round round
// distils into: every device in exact mode, or a rotating t-wide window
// in sampled mode. The window position advances with the absolute
// iteration index across rounds (not just within one round), so coverage
// keeps cycling through the whole federation even when a single round's
// DistillIters × t budget is smaller than the device count. The window is
// a pure function of (round, it), which is what lets the replica
// prefetcher warm the next iteration's window during the current one.
func (s *Server) transferBackIDs(round, it, t int) []int {
	n := s.cohorts.numDevices()
	if t == 0 || t >= n {
		return s.cohorts.allIDs()
	}
	start := (((round-1)*s.cfg.DistillIters + it) * t) % n
	if start < 0 {
		start += n
	}
	ids := make([]int, t)
	for j := range ids {
		ids[j] = (start + j) % n
	}
	return ids
}

// transferBackPhase is the second half of Algorithm 3 (lines 15-21):
// distil the updated global model back into the replicas using the
// trained generator and the KL loss of Eq. 8.
func (s *Server) transferBackPhase(ctx context.Context, round int) (err error) {
	cfg := s.cfg
	rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<24 + 0xBAC))

	// G and F are fixed teachers here.
	nn.SetTrainable(s.gen, false)
	nn.SetTrainable(s.global, false)
	s.gen.SetTraining(false)
	s.global.SetTraining(false)
	defer func() {
		nn.SetTrainable(s.gen, true)
		nn.SetTrainable(s.global, true)
		s.gen.SetTraining(true)
		s.global.SetTraining(true)
	}()

	t := s.teachersPerIter()
	var phaseLeases []*replicaLease
	if t == 0 {
		phaseLeases = compactLeases(s.cohorts.checkout(s.cohorts.allIDs(), true, true))
		defer func() {
			// Writable leases re-encode into the store on release; surface a
			// spill-tier I/O failure unless the phase already failed.
			if rerr := s.cohorts.release(phaseLeases); rerr != nil && err == nil {
				err = rerr
			}
		}()
	} else {
		s.cohorts.prefetch(s.transferBackIDs(round, 0, t))
	}

	for it := 0; it < cfg.DistillIters; it++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fedzkt: transfer-back phase cancelled at iteration %d of round %d: %w", it, round, err)
		}
		// The generated batch and the teacher's distillation targets are
		// shared read-only values, computed once per iteration on the
		// phase arena (reset only after every worker has joined). Their
		// Variable wrappers carry no arena, so each worker's tape draws
		// from the worker's own arena instead.
		x := s.gen.Forward(ag.ConstIn(s.phase, s.gen.SampleZIn(s.phase.Tensors(), cfg.DistillBatch, rng))).Value()
		s.colMemo.Rebind(x)
		targets := NewDistillTargetsIn(s.phase.Tensors(),
			ag.SoftmaxRowsIn(s.phase, s.global.Forward(ag.ConstIn(s.phase, x)).Value()))

		batch := phaseLeases
		if t > 0 {
			if it+1 < cfg.DistillIters {
				// The next window is a pure function of (round, it), so it
				// can warm while this iteration's replica steps run.
				s.cohorts.prefetch(s.transferBackIDs(round, it+1, t))
			}
			batch = compactLeases(s.cohorts.checkout(s.transferBackIDs(round, it, t), true, true))
		}

		// One independent distillation step per resident replica, bounded
		// to the configured worker count so a 1,000-device federation does
		// not spawn 1,000 goroutines (and to a single goroutine under the
		// reference sequential scheduler). Each worker owns an arena,
		// reset after every replica's step — which must stay ordered
		// before this iteration's phase-arena reset below: worker arenas
		// memoise conv lowerings keyed by the shared phase-arena batch x
		// (see ag.convColKey), so a worker cache must never outlive the
		// phase buffers it is keyed on.
		s.ensureWorkerArenas(sched.EffectiveWorkers(len(batch), cfg.poolWorkers()))
		sched.ForEachWorker(len(batch), cfg.poolWorkers(), func(i, w int) {
			wa := s.workerArenas[w]
			l := batch[i]
			loss := targets.Loss(l.slot.module.Forward(ag.ConstIn(wa, x)))
			l.slot.opt.ZeroGrad()
			ag.Backward(loss)
			l.slot.opt.Step()
			wa.Reset()
		})

		if t > 0 {
			if err := s.cohorts.release(batch); err != nil {
				return err
			}
		}
		s.colMemo.Rebind(nil)
		s.phase.Reset()
	}
	return nil
}

// EvaluateGlobal reports F's test accuracy on ds.
func (s *Server) EvaluateGlobal(ds *data.Dataset) float64 {
	return fed.EvaluateArena(s.global, ds, 64, s.phase)
}
