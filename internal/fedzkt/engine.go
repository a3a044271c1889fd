package fedzkt

// This file is the coordinator's round engine (Algorithm 1), the only one:
// every Config.PipelineDepth runs it. A round is split into two stages on
// separate goroutines, connected by bounded channels:
//
//	local stage   (caller goroutine): sample → localPhase → stage uploads;
//	                                  apply downloads → finalise the round
//	server stage  (one goroutine):    absorb → distill → publish downloads
//	                                  → evaluate F → store stats
//
// The uploads channel IS the absorb staging buffer: uploads for round r+1
// sit in it until the server stage has finished distilling round r, so
// they can never race the round-r teacher ensemble. Snapshot isolation
// between the stages follows from the data flow — devices train on their
// own modules, the server mutates cohort replica slots, and both uploads
// and downloads are independent copies (codec containers) handed across a
// channel.
//
// Bounded staleness: round r's local phase trains on the parameters
// published after round r−1−depth, enforced by waiting for exactly that
// download before launching the round — never more, even when the server
// runs ahead. Depth 0 is therefore the paper's barrier: round r+1 waits
// for round r's downloads. Download application points are a pure
// function of (depth, round), which is what makes the metrics
// byte-identical across worker counts for a fixed depth and seed.
//
// A round is finalised on the caller goroutine at the point its downloads
// are applied: per-device accuracy is taken from the device models there
// (so DeviceAcc means the on-device model at every depth), then the
// history, the registry, the durable checkpoint and the round-end crash
// point. On a checkpoint round the server stage holds before absorbing the
// next round until that checkpoint is written, so the file captures the
// server exactly at the round boundary.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/fed"
)

// uploadBatch is one round's staged hand-off from the local stage to the
// server stage: the partially filled round metrics plus the completed
// devices' uploaded states in wire form (ascending id).
type uploadBatch struct {
	start     time.Time // when the round's local phase began
	m         fed.RoundMetrics
	completed []int
	uploads   [][]byte
}

// downloadBatch is one round's published downloads: each completing
// device's replica slot after the round's transfer-back, as a copy of its
// codec container (so later absorbs cannot race a batch sitting in the
// channel), plus the round's metrics as far as the server stage fills them.
type downloadBatch struct {
	start  time.Time
	m      fed.RoundMetrics
	ids    []int
	states [][]byte
}

// errStageStopped marks the local stage finding the server stage gone; the
// server stage's own error is what Run reports.
var errStageStopped = errors.New("fedzkt: server stage stopped")

// engine is one Run's pair of stages and the channels between them.
type engine struct {
	c         *Coordinator
	uploads   chan uploadBatch
	downloads chan downloadBatch
	// held releases the server stage after a checkpoint round's file is
	// written (see serve).
	held chan struct{}
	// lastFinal is the last round the local stage finalised; hist holds
	// the rounds this Run finalised.
	lastFinal int
	hist      fed.History
}

// runRounds executes rounds c.nextRound..cfg.Rounds. The returned history
// holds every round finalised, in order; on cancellation or stage failure
// the first error is returned alongside that consistent prefix. Every exit
// — including a panic out of a crash point — stops the server stage before
// runRounds returns.
func (c *Coordinator) runRounds(ctx context.Context) (fed.History, error) {
	cfg := c.cfg
	startRound := c.nextRound
	if startRound > cfg.Rounds {
		return fed.History{}, nil
	}
	// Capacity depth+1 covers the rounds the staleness rule allows in
	// flight, so neither stage blocks on a healthy peer.
	e := &engine{
		c:         c,
		uploads:   make(chan uploadBatch, cfg.PipelineDepth+1),
		downloads: make(chan downloadBatch, cfg.PipelineDepth+1),
		held:      make(chan struct{}, 1),
		lastFinal: startRound - 1,
	}
	// runCtx lets either stage abort the other: the server stage cancels
	// it on error, and a user cancellation of ctx propagates through it
	// into mid-phase distillation and queued device tasks.
	runCtx, cancel := context.WithCancel(ctx)
	var serverErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(e.downloads)
		if serverErr = e.serve(runCtx); serverErr != nil {
			cancel()
		}
	}()
	// stop ends the server stage and waits for it. It runs on every exit
	// — a panicking crash handler included — so no goroutine outlives Run.
	closeUploads := sync.OnceFunc(func() { close(e.uploads) })
	stop := sync.OnceFunc(func() {
		cancel()
		closeUploads()
		for range e.downloads {
		}
		<-done
	})
	defer stop()

	err := e.local(ctx, runCtx, startRound)
	closeUploads()
	if err == nil {
		// Drain: finalise every round the server stage still publishes.
		_, err = e.finaliseThrough(cfg.Rounds)
	}
	stop()
	if err == nil || errors.Is(err, errStageStopped) {
		err = serverErr
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("fedzkt: run cancelled at round %d: %w", c.nextRound, ctx.Err())
	}
	return e.hist, err
}

// local is the local stage: for each round, sample, run the local phase,
// stage the uploads, then finalise rounds up to the next round's
// staleness barrier.
func (e *engine) local(ctx, runCtx context.Context, startRound int) error {
	c, cfg := e.c, e.c.cfg
	roundRNG := c.roundSampler()
	var stall time.Duration
	for round := startRound; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fedzkt: run cancelled at round %d: %w", round, err)
		}
		// Chaos crash point: a process death before the round does any
		// work — the recovery baseline (resume re-runs this round).
		chaos.Crash(chaos.SiteCrashRoundStart)
		m := fed.RoundMetrics{Round: round, DownloadStall: stall}
		m.Active = c.sampler.Sample(len(c.devices), roundRNG)
		start := time.Now()
		localSpan := tracer().Begin("fed", "local_phase").WithRound(round)
		completed, ups, err := c.localPhase(runCtx, round, m.Active, &m)
		localSpan.End()
		if err != nil {
			return err
		}
		m.LocalElapsed = time.Since(start)
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("fedzkt: run cancelled at round %d: %w", round, err)
		}
		select {
		case e.uploads <- uploadBatch{start: start, m: m, completed: completed, uploads: ups}:
		case <-runCtx.Done():
			return errStageStopped
		}
		// The next round may only train on the parameters published after
		// round−depth: finalise every round up to there first.
		if stall, err = e.finaliseThrough(round - cfg.PipelineDepth); err != nil {
			return err
		}
	}
	return nil
}

// finaliseThrough receives published download batches in round order and
// finalises each until round target is. It returns how long it sat
// blocked on the server stage.
func (e *engine) finaliseThrough(target int) (time.Duration, error) {
	var stall time.Duration
	for e.lastFinal < target {
		wait := time.Now()
		db, ok := <-e.downloads
		stall += time.Since(wait)
		if !ok {
			return stall, errStageStopped
		}
		if err := e.finalise(db); err != nil {
			return stall, err
		}
	}
	return stall, nil
}

// finalise applies one round's downloads and completes the round: device
// accuracy from the device models, the history and registry, the durable
// checkpoint (releasing the held server stage), then the round-end crash
// point.
func (e *engine) finalise(db downloadBatch) error {
	c := e.c
	m := db.m
	for i, id := range db.ids {
		if err := c.applyDownload(id, db.states[i]); err != nil {
			return err
		}
		db.states[i] = nil // applied: let it go before evaluation
	}
	if c.evaluated(m.Round) {
		evalSpan := tracer().Begin("fed", "evaluate").WithRound(m.Round)
		accs, err := c.deviceAccs()
		evalSpan.End()
		if err != nil {
			return err
		}
		m.DeviceAcc, m.MeanDeviceAcc = accs, fed.Mean(accs)
	}
	m.Elapsed = time.Since(db.start)
	c.metrics.observeRound(&m)
	e.hist = append(e.hist, m)
	c.hist = append(c.hist, m)
	c.nextRound = m.Round + 1
	e.lastFinal = m.Round
	if c.checkpointDue(m.Round) {
		if err := c.writeCheckpoint(m.Round); err != nil {
			return err
		}
		e.held <- struct{}{}
	}
	// Chaos crash point: a process death at the finalised round boundary,
	// after the durable checkpoint — the resume re-runs the rest.
	chaos.Crash(chaos.SiteCrashRoundEnd)
	return nil
}

// serve is the server stage: absorb → distill → publish downloads →
// evaluate F → store stats, strictly in round order. It is the only
// goroutine touching the server while the local stage trains, except
// while it holds for a checkpoint.
func (e *engine) serve(ctx context.Context) error {
	c := e.c
	for {
		wait := time.Now()
		ub, ok := <-e.uploads
		if !ok {
			return nil
		}
		m := ub.m
		m.UploadStall = time.Since(wait)
		m.Absorbed = len(ub.completed)
		if err := c.absorbUploads(ub.completed, ub.uploads); err != nil {
			return err
		}
		// The staged copies are garbage once absorbed; dropping them now
		// keeps them from overlapping this round's download copies.
		ub.uploads = nil
		serverStart := time.Now()
		// The server stage renders on its own trace track (tid 1): its
		// spans overlap the local stage's.
		distillSpan := tracer().Begin("fed", "server_distill").WithRound(m.Round).WithTID(1)
		gn, err := c.server.Distill(ctx, m.Round)
		distillSpan.End()
		if err != nil {
			return fmt.Errorf("fedzkt: round %d: %w", m.Round, err)
		}
		m.ServerElapsed = time.Since(serverStart)
		m.InputGradNorm = gn

		db := downloadBatch{start: ub.start, ids: ub.completed, states: make([][]byte, len(ub.completed))}
		for i, id := range ub.completed {
			p, numel, err := c.server.ReplicaPayload(id)
			if err != nil {
				return err
			}
			db.states[i] = p
			m.BytesDown += fed.WireBytes(numel, c.codec.Width())
		}
		if c.evaluated(m.Round) {
			m.GlobalAcc = c.server.EvaluateGlobal(c.ds)
		}
		c.finishRoundStats(&m)
		db.m = m
		// The local stage drains this channel until it is closed, so the
		// send cannot block indefinitely.
		e.downloads <- db
		if c.checkpointDue(m.Round) {
			// Hold until the local stage has written this round's
			// checkpoint: absorbing round r+1 first would leak it into the
			// round-r file.
			select {
			case <-e.held:
			case <-ctx.Done():
				return nil
			}
		}
	}
}
