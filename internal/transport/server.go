package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/model"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// ServerConfig configures a networked FedZKT server.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:7700"; port 0 picks
	// an ephemeral port, readable via Server.Addr).
	Addr string
	// NumDevices is how many device registrations to wait for before
	// starting round 1.
	NumDevices int
	// Fed is the FedZKT algorithm configuration.
	Fed fedzkt.Config
	// DatasetName picks one of the named synthetic datasets.
	DatasetName string
	// Sizes are the per-class sample counts.
	Sizes data.Sizes
	// Partition selects the data-partition regime, matching the
	// experiment runner's vocabulary: "iid" (the "" default),
	// "quantity:<classes-per-device>", or "dirichlet:<beta>". Distributed
	// runs therefore shard exactly like simulator runs with the same
	// config.
	Partition string
	// IOTimeout bounds each active transfer (a registration handshake
	// read, any write) on a device connection. It does NOT bound how long
	// a registered device may sit idle between rounds: idle connections
	// are read without a deadline, so a device that is not sampled for
	// many rounds, or waits out a long server distillation phase, never
	// trips a spurious timeout.
	IOTimeout time.Duration
	// MinUploads is the round quorum: the minimum number of active-device
	// uploads a round needs before the server may distill without the
	// rest. 0 (the default) keeps the strict legacy contract — every
	// active device must upload, and a round that cannot complete within
	// UploadDeadline aborts the run.
	MinUploads int
	// UploadDeadline bounds each round's upload collection. When it
	// expires, the round proceeds if at least MinUploads uploads arrived
	// (quorum mode) and aborts otherwise. 0 defaults to IOTimeout.
	UploadDeadline time.Duration
	// StalenessBound is how many rounds late an upload may arrive and
	// still be absorbed into the next teacher window (via the server's
	// replica-absorb path — the same bounded-staleness contract the
	// coordinator's PipelineDepth defines). 0 drops every late upload;
	// late and dropped uploads are acknowledged either way so devices can
	// clear their replay buffers.
	StalenessBound int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.NumDevices == 0 {
		c.NumDevices = 2
	}
	if c.DatasetName == "" {
		c.DatasetName = "synthmnist"
	}
	if c.Sizes == (data.Sizes{}) {
		c.Sizes = data.DefaultSizes
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 2 * time.Minute
	}
	if c.UploadDeadline == 0 {
		c.UploadDeadline = c.IOTimeout
	}
	return c
}

// Server runs the federated round loop over real network connections,
// reusing the same fedzkt.Server core as the in-process simulator. Each
// device is a session that survives connection losses: connections carry
// a reader/writer goroutine pair feeding a central round loop, and a
// device that reconnects with its resume token re-joins mid-round
// instead of being dropped.
type Server struct {
	cfg    ServerConfig
	ds     *data.Dataset
	core   *fedzkt.Server
	ln     net.Listener
	key    []byte
	shards [][]int
	// sampler is the paper's active-fraction straggler model, shared with
	// the in-process coordinator.
	sampler sched.Fraction

	// events feeds every connection's reader (messages, attach/detach
	// notifications) into the central round loop.
	events chan inbound
	// regProgress signals each completed core registration; fatal carries
	// the first registration-phase failure.
	regProgress chan struct{}
	fatal       chan error

	mu         sync.Mutex
	sessions   []*session
	nextID     int
	installed  int
	pending    map[int]pendingInstall
	conns      []net.Conn
	finalStats []SessionStats
}

// pendingInstall buffers a completed registration handshake until every
// lower device id has been installed into the core, so replica ids always
// equal the transport's Hello-order ids even though handshakes run
// concurrently.
type pendingInstall struct {
	arch   string
	sd     nn.StateDict
	weight int
}

// unsupportedFed rejects the fedzkt.Config fields only the in-process
// coordinator implements, so a networked run never silently ignores one.
func unsupportedFed(c fedzkt.Config) error {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"SampleK", c.SampleK != 0},
		{"SampleWeighted", c.SampleWeighted},
		{"PipelineDepth", c.PipelineDepth != 0},
		{"RoundDeadline", c.RoundDeadline != 0},
		{"FailureRate", c.FailureRate != 0},
		{"VirtualDevices", c.VirtualDevices},
		{"CheckpointDir", c.CheckpointDir != ""},
		{"Resume", c.Resume},
	} {
		if f.set {
			return fmt.Errorf("transport: fedzkt.Config.%s is not supported by the networked server", f.name)
		}
	}
	return nil
}

// NewServer builds the server and starts listening; call Run to serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := unsupportedFed(cfg.Fed); err != nil {
		return nil, err
	}
	ds, ok := data.ByName(cfg.DatasetName, cfg.Sizes, cfg.Fed.Seed)
	if !ok {
		return nil, fmt.Errorf("transport: unknown dataset %q", cfg.DatasetName)
	}
	core, err := fedzkt.NewServer(cfg.Fed, model.Shape{C: ds.C, H: ds.H, W: ds.W}, ds.Classes)
	if err != nil {
		return nil, err
	}
	sampler, err := sched.NewFraction(core.Config().ActiveFraction)
	if err != nil {
		_ = core.Close()
		return nil, fmt.Errorf("transport: %w", err)
	}
	// Deterministic shard assignment, mirroring the simulator.
	shards, err := shardsFor(ds, cfg.NumDevices, cfg.Partition, core.Config().Seed)
	if err != nil {
		return nil, err
	}
	key, err := newResumeKey()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
	}
	srv := &Server{
		cfg:         cfg,
		ds:          ds,
		core:        core,
		ln:          ln,
		key:         key,
		shards:      shards,
		sampler:     sampler,
		events:      make(chan inbound, 4*cfg.NumDevices+16),
		regProgress: make(chan struct{}, cfg.NumDevices),
		fatal:       make(chan error, 1),
		pending:     make(map[int]pendingInstall),
	}
	srv.RegisterMetrics(obs.Default())
	return srv, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener and all device connections.
func (s *Server) Close() {
	_ = s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		_ = c.Close()
	}
}

// SessionStats returns the per-device session statistics: resume counts,
// upload outcomes (absorbed/late/duplicate) and measured wire traffic.
// After Run returns it reports the run-final snapshot.
func (s *Server) SessionStats() []SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finalStats != nil {
		return append([]SessionStats(nil), s.finalStats...)
	}
	out := make([]SessionStats, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess.stats())
	}
	return out
}

// stats snapshots one session's statistics.
func (s *session) stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		ID: s.id, Arch: s.arch,
		Resumes:  s.resumes,
		Absorbed: s.absorbed, Late: s.late, Duplicates: s.duplicates,
		BytesUp: s.meter.up.Load(), BytesDown: s.meter.down.Load(),
	}
}

// trackConn records a connection for Close.
func (s *Server) trackConn(conn net.Conn) {
	s.mu.Lock()
	s.conns = append(s.conns, conn)
	s.mu.Unlock()
}

// registrationComplete reports whether all NumDevices replicas are
// installed in the core.
func (s *Server) registrationComplete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.installed == s.cfg.NumDevices
}

// reportFatal delivers the first registration-phase failure to Run.
func (s *Server) reportFatal(err error) {
	select {
	case s.fatal <- err:
	default:
	}
}

// Run accepts cfg.NumDevices registrations, executes the full round loop,
// and returns the per-round history. It closes all connections on return.
// ctx cancellation aborts the registration wait and the round loop.
func (s *Server) Run(ctx context.Context) (fed.History, error) {
	defer s.Close()
	stop := context.AfterFunc(ctx, s.Close)
	defer stop()

	// Accept loop: runs for the server's whole life, serving both fresh
	// registrations and mid-round session resumes. Each connection gets
	// its own handshake goroutine, so one client that connects and stalls
	// cannot head-of-line block the others.
	go func() {
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.trackConn(conn)
			go s.handleConn(conn)
		}
	}()

	if err := s.awaitRegistration(ctx); err != nil {
		return nil, err
	}
	return s.roundLoop(ctx)
}

// awaitRegistration blocks until all NumDevices devices are registered,
// a registration fails, registration stalls for IOTimeout with no
// progress, or ctx is cancelled.
func (s *Server) awaitRegistration(ctx context.Context) error {
	timer := time.NewTimer(s.cfg.IOTimeout)
	defer timer.Stop()
	for !s.registrationComplete() {
		select {
		case <-s.regProgress:
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(s.cfg.IOTimeout)
		case err := <-s.fatal:
			return err
		case <-ctx.Done():
			return fmt.Errorf("transport: accept cancelled: %w", ctx.Err())
		case <-timer.C:
			s.mu.Lock()
			n := s.installed
			s.mu.Unlock()
			return fmt.Errorf("transport: registration timed out with %d/%d devices", n, s.cfg.NumDevices)
		}
	}
	return nil
}

// handleConn runs one connection's handshake: a MsgHello registers a new
// device session, a MsgResume re-attaches an existing one. Registration-
// phase failures are fatal to the run (rounds cannot start without all
// devices); failures after registration only drop the offending
// connection.
func (s *Server) handleConn(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(s.cfg.IOTimeout))
	var handshake meter
	mc := &meteredConn{Conn: conn, m: &handshake}
	first, err := ReadMessage(mc)
	if err != nil {
		s.handshakeFail(conn, fmt.Errorf("transport: handshake: %w", err))
		return
	}
	switch first.Type {
	case MsgHello:
		s.handleHello(conn, mc, first)
	case MsgResume:
		s.handleResume(conn, mc, first)
	default:
		s.handshakeFail(conn, fmt.Errorf("transport: expected hello or resume, got %v", first.Type))
	}
}

// handshakeFail closes a connection that failed its handshake, aborting
// the whole run if registration is still incomplete.
func (s *Server) handshakeFail(conn net.Conn, err error) {
	_ = WriteMessage(conn, &Message{Type: MsgError, Reason: err.Error()})
	_ = conn.Close()
	if !s.registrationComplete() {
		s.reportFatal(err)
	}
}

// handleHello performs the registration handshake:
// Hello → Welcome(+assignment+token) → InitState. Handshake IO runs
// concurrently across connections; only the in-memory core installs are
// serialised, in device-id order (see pendingInstall).
func (s *Server) handleHello(conn net.Conn, mc *meteredConn, hello *Message) {
	cfg := s.cfg
	fedCfg := s.core.Config()

	s.mu.Lock()
	if s.nextID >= cfg.NumDevices {
		s.mu.Unlock()
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "transport: federation is full"})
		_ = conn.Close()
		return
	}
	id := s.nextID
	s.nextID++
	sess := &session{id: id, arch: hello.Arch, token: resumeToken(s.key, id)}
	s.sessions = append(s.sessions, sess)
	s.mu.Unlock()

	// Fold the Hello's bytes into the session meter and account the rest
	// of the handshake there directly.
	sess.meter.up.Add(mc.m.up.Load())
	sess.meter.down.Add(mc.m.down.Load())
	mc.m = &sess.meter

	fail := func(err error) {
		s.handshakeFail(conn, fmt.Errorf("transport: registration of device %d: %w", id, err))
	}
	assignment, err := EncodeAssignment(&Assignment{
		DatasetName: cfg.DatasetName,
		Sizes:       cfg.Sizes,
		DataSeed:    fedCfg.Seed,
		Indices:     s.shards[id],
		Local: fed.LocalConfig{
			Epochs:      fedCfg.LocalEpochs,
			BatchSize:   fedCfg.BatchSize,
			LR:          fedCfg.DeviceLR,
			Momentum:    fedCfg.Momentum,
			WeightDecay: fedCfg.WeightDecay,
			ProxMu:      fedCfg.ProxMu,
		},
		Rounds:     fedCfg.Rounds,
		ModelSeed:  fedCfg.Seed + uint64(1000+id),
		StateCodec: s.core.Codec().Name(),
	})
	if err != nil {
		fail(err)
		return
	}
	if err := WriteMessage(mc, &Message{Type: MsgWelcome, DeviceID: id, Token: sess.token, Payload: assignment}); err != nil {
		fail(err)
		return
	}
	init, err := expect(mc, MsgInitState)
	if err != nil {
		fail(err)
		return
	}
	sd, err := codec.Decode(init.Payload)
	if err != nil {
		fail(err)
		return
	}
	if err := s.install(id, hello.Arch, sd, len(s.shards[id])); err != nil {
		fail(err)
		return
	}
	_ = conn.SetDeadline(time.Time{})
	tracer().Begin("transport", "session_attach").WithTID(id).End()
	sess.attach(conn, 0, s.events, cfg.IOTimeout)
}

// install queues device id's registration and installs every
// consecutively-ready registration into the core, so core replica ids
// always match transport ids regardless of handshake completion order.
func (s *Server) install(id int, arch string, sd nn.StateDict, weight int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[id] = pendingInstall{arch: arch, sd: sd, weight: weight}
	for {
		p, ok := s.pending[s.installed]
		if !ok {
			return nil
		}
		got, err := s.core.RegisterSized(p.arch, p.sd, p.weight)
		if err != nil {
			return err
		}
		if got != s.installed {
			return fmt.Errorf("transport: device id mismatch: %d != %d", got, s.installed)
		}
		delete(s.pending, s.installed)
		s.installed++
		select {
		case s.regProgress <- struct{}{}:
		default:
		}
	}
}

// handleResume re-attaches a reconnecting device to its session after
// validating the signed resume token. The device's announced pending
// upload round rides along to the round loop, which decides whether the
// current round's train request needs re-sending.
func (s *Server) handleResume(conn net.Conn, mc *meteredConn, resume *Message) {
	id := resume.DeviceID
	s.mu.Lock()
	var sess *session
	if id >= 0 && id < len(s.sessions) {
		sess = s.sessions[id]
	}
	s.mu.Unlock()
	if sess == nil || !checkResumeToken(s.key, id, resume.Token) {
		// An invalid resume is never fatal — the federation's registered
		// sessions are unaffected by a stray or malicious connection.
		_ = WriteMessage(conn, &Message{Type: MsgError, Reason: "transport: invalid resume token"})
		_ = conn.Close()
		return
	}
	sess.meter.up.Add(mc.m.up.Load())
	sess.meter.down.Add(mc.m.down.Load())
	mc.m = &sess.meter
	if err := WriteMessage(mc, &Message{Type: MsgResumeAck, DeviceID: id}); err != nil {
		_ = conn.Close()
		return
	}
	sess.mu.Lock()
	sess.resumes++
	sess.mu.Unlock()
	_ = conn.SetDeadline(time.Time{})
	tracer().Begin("transport", "session_resume").WithTID(id).WithRound(resume.Round).End()
	sess.attach(conn, resume.Round, s.events, s.cfg.IOTimeout)
}

// roundLoop executes the federated rounds over the session layer: train
// requests fan out through session outboxes, uploads flow back through
// the events channel, and each round closes on a quorum instead of
// all-active-or-abort.
func (s *Server) roundLoop(ctx context.Context) (fed.History, error) {
	cfg := s.cfg
	fedCfg := s.core.Config()

	s.mu.Lock()
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()

	// After the loop exits (normally or on error), a background drainer
	// keeps the events channel flowing so no reader goroutine stays
	// blocked on a send after its connection dies.
	defer func() {
		go func() {
			for range s.events {
			}
		}()
	}()

	// lastAbsorbed[id] is the highest round whose upload the server has
	// absorbed for the device — the dedup line that makes a replayed
	// upload absorb exactly once.
	lastAbsorbed := make([]int, cfg.NumDevices)
	prevUp := make([]int64, cfg.NumDevices)
	prevDown := make([]int64, cfg.NumDevices)

	hist := make(fed.History, 0, fedCfg.Rounds)
	roundRNG := tensor.NewRand(fedCfg.Seed + 99)
	for round := 1; round <= fedCfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return hist, fmt.Errorf("transport: cancelled at round %d: %w", round, err)
		}
		start := time.Now()
		roundSpan := tracer().Begin("transport", "round").WithRound(round)
		m := fed.RoundMetrics{Round: round}
		active := s.sampler.Sample(cfg.NumDevices, roundRNG)
		m.Active = active
		isActive := make([]bool, cfg.NumDevices)
		for _, id := range active {
			isActive[id] = true
		}

		// Kick off local training on the active devices. Enqueues to a
		// detached session are dropped; if the device resumes mid-round
		// the attach event below re-sends the request. The local phase is
		// timed from here until upload collection ends.
		localStart := time.Now()
		for _, id := range active {
			sessions[id].enqueue(&Message{Type: MsgTrainRequest, Round: round, DeviceID: id})
		}

		// Collect uploads until every active device reported, or the
		// upload deadline expired with at least a quorum in hand. Late
		// uploads from earlier rounds absorb into the next teacher window
		// when they are within the staleness bound; duplicates and
		// overstale uploads are acknowledged and dropped.
		target := len(active)
		quorum := target
		if cfg.MinUploads > 0 && cfg.MinUploads < target {
			quorum = cfg.MinUploads
		}
		uploaded := make([]bool, cfg.NumDevices)
		lateIDs := make([]int, 0)
		got := 0
		deadline := time.NewTimer(cfg.UploadDeadline)
		expired := false
		for got < target && !(expired && got >= quorum) {
			select {
			case ev := <-s.events:
				switch ev.kind {
				case evAttached:
					// A resumed device that has not uploaded for the
					// current round (and is not about to replay it) gets
					// the train request again.
					if isActive[ev.id] && !uploaded[ev.id] && ev.pendingRound != round {
						sessions[ev.id].enqueue(&Message{Type: MsgTrainRequest, Round: round, DeviceID: ev.id})
					}
				case evDetached:
					// The session stays registered; nothing to do until
					// the device resumes or the round closes without it.
					tracer().Begin("transport", "session_detach").WithTID(ev.id).WithRound(round).End()
				case evMessage:
					if ev.msg.Type != MsgUpload {
						continue
					}
					up := ev.msg
					id := ev.id
					switch {
					case up.Round <= lastAbsorbed[id] || up.Round > round:
						// Replayed duplicate of an absorbed round (or
						// nonsense from the future): acknowledge so the
						// device clears its replay buffer, absorb nothing.
						m.DroppedUploads++
						sessions[id].count(&sessions[id].duplicates)
					case up.Round == round && isActive[id]:
						if err := s.core.AbsorbPayload(id, up.Payload); err != nil {
							m.DroppedUploads++
							break
						}
						lastAbsorbed[id] = round
						uploaded[id] = true
						got++
						m.Absorbed++
						sessions[id].count(&sessions[id].absorbed)
					case round-up.Round <= cfg.StalenessBound:
						// A stale upload inside the staleness bound:
						// absorb it so the next distillation's teacher
						// window sees the device's latest work.
						if err := s.core.AbsorbPayload(id, up.Payload); err != nil {
							m.DroppedUploads++
							break
						}
						lastAbsorbed[id] = up.Round
						m.LateAbsorbed++
						sessions[id].count(&sessions[id].late)
						lateIDs = append(lateIDs, id)
					default:
						m.DroppedUploads++
					}
					sessions[id].enqueue(&Message{Type: MsgUploadAck, Round: up.Round, DeviceID: id})
				}
			case <-deadline.C:
				expired = true
				if got < quorum {
					deadline.Stop()
					roundSpan.End()
					return hist, fmt.Errorf("transport: round %d: %d/%d uploads within deadline (quorum %d)", round, got, target, quorum)
				}
			case <-ctx.Done():
				deadline.Stop()
				roundSpan.End()
				return hist, fmt.Errorf("transport: cancelled at round %d: %w", round, ctx.Err())
			}
		}
		deadline.Stop()
		m.LocalElapsed = time.Since(localStart)
		for _, id := range active {
			if !uploaded[id] {
				m.Dropped = append(m.Dropped, id)
			}
		}

		// Server-side distillation.
		serverStart := time.Now()
		gn, err := s.core.Distill(ctx, round)
		if err != nil {
			roundSpan.End()
			return hist, err
		}
		m.ServerElapsed = time.Since(serverStart)
		m.InputGradNorm = gn

		// Ship the distilled parameters back to every device whose upload
		// was absorbed this round (fresh or late) and is still attached,
		// in the codec's wire form.
		downloadTo := append([]int(nil), lateIDs...)
		for _, id := range active {
			if uploaded[id] {
				downloadTo = append(downloadTo, id)
			}
		}
		for _, id := range downloadTo {
			if !sessions[id].attached() {
				continue
			}
			payload, _, err := s.core.ReplicaPayload(id)
			if err != nil {
				roundSpan.End()
				return hist, err
			}
			sessions[id].enqueue(&Message{Type: MsgDownload, Round: round, DeviceID: id, Payload: payload})
		}

		m.GlobalAcc = s.core.EvaluateGlobal(s.ds)

		// Round summary to every attached device.
		summary, err := EncodeRoundSummary(&RoundSummary{
			Round: round, Absorbed: m.Absorbed, Late: m.LateAbsorbed,
			Dropped: m.DroppedUploads, GlobalAcc: m.GlobalAcc,
		})
		if err != nil {
			roundSpan.End()
			return hist, err
		}
		for _, sess := range sessions {
			sess.enqueue(&Message{Type: MsgRoundSummary, Round: round, DeviceID: sess.id, Payload: summary})
		}

		// Measured wire accounting: the per-session meters count every
		// byte on the conn — frame prefixes, handshakes, registration and
		// resume traffic included — and the round books the delta since
		// its predecessor (round 1 therefore carries registration).
		for id, sess := range sessions {
			up, down := sess.meter.up.Load(), sess.meter.down.Load()
			m.BytesUp += up - prevUp[id]
			m.BytesDown += down - prevDown[id]
			prevUp[id], prevDown[id] = up, down
		}
		m.Elapsed = time.Since(start)
		roundSpan.End()
		hist = append(hist, m)
	}

	// Graceful shutdown: tell every attached device the federation is
	// over, then give the writers a moment to drain before Close.
	dones := make([]chan struct{}, 0, len(sessions))
	for _, sess := range sessions {
		sess.enqueue(&Message{Type: MsgDone, DeviceID: sess.id})
		if ch := sess.shutdown(); ch != nil {
			dones = append(dones, ch)
		}
	}
	drainDeadline := time.After(2 * time.Second)
drain:
	for _, ch := range dones {
		select {
		case <-ch:
		case <-drainDeadline:
			break drain
		}
	}

	// Fold the shutdown traffic into the final round and freeze the
	// session stats, so SessionStats totals match the history exactly.
	if len(hist) > 0 {
		last := &hist[len(hist)-1]
		for id, sess := range sessions {
			up, down := sess.meter.up.Load(), sess.meter.down.Load()
			last.BytesUp += up - prevUp[id]
			last.BytesDown += down - prevDown[id]
			prevUp[id], prevDown[id] = up, down
		}
	}
	final := make([]SessionStats, 0, len(sessions))
	for _, sess := range sessions {
		final = append(final, sess.stats())
	}
	s.mu.Lock()
	s.finalStats = final
	s.mu.Unlock()
	return hist, nil
}
