package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/ag"
	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/obs"
	"github.com/fedzkt/fedzkt/internal/sched"
	"github.com/fedzkt/fedzkt/internal/tensor"
	"github.com/fedzkt/fedzkt/internal/transport"
)

// traceCapacity bounds the spans one traced repetition keeps: enough for
// every task span of the largest workload.
const traceCapacity = 1 << 16

// recorder times calls into the program's layers: each call is a span in
// the benchmark's own tracer and adds to its layer's total.
type recorder struct {
	tr *obs.Tracer
	// total is each layer's summed call time; timed is the sum over the
	// calls made from the replay's own goroutine, which never overlap.
	total map[string]time.Duration
	timed time.Duration
	// ckptBytes sums the encoded checkpoints' sizes; evalModels counts
	// the device models evaluated.
	ckptBytes  int64
	evalModels int
}

func newRecorder() *recorder {
	return &recorder{tr: obs.NewTracer(traceCapacity), total: map[string]time.Duration{}}
}

// call times fn as one call into layer, attributed to round's span.
func (r *recorder) call(layer, name string, round int, parent uint64, fn func() error) error {
	span := r.tr.Begin(layer, name).WithRound(round).WithParent(parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	span.End()
	r.total[layer] += d
	r.timed += d
	return err
}

func (r *recorder) seconds(layer string) float64 { return r.total[layer].Seconds() }

func (r *recorder) writeTrace(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := r.tr.WriteTrace(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

// poolTimes collects the scheduler's timings: per task from the workers,
// per RunRound from the replay.
type poolTimes struct {
	mu       sync.Mutex
	queue    []float64 // ms from RunRound's start to the task's start
	local    []float64 // ms of Device.LocalUpdate
	stepMS   []float64 // ms per optimiser step
	workerOf map[*ag.Arena]int

	// wall sums RunRound's wall time; capacity sums workers × wall.
	wall, capacity time.Duration
}

// tid maps a worker's scratch arena to a stable trace lane.
func (t *poolTimes) tid(a *ag.Arena) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.workerOf[a]
	if !ok {
		id = len(t.workerOf) + 1
		t.workerOf[a] = id
	}
	return id
}

// runTraced replays the workload's synchronous rounds from outside the
// coordinator, timing every call into a layer, then runs the codec,
// tensor and frame probes. The replay must reproduce Coordinator.Run's
// History.Fingerprint; the caller checks it against the untraced run.
func runTraced(w workload, tmp, traceDir string) (*outcome, error) {
	if w.net {
		return runLoopbackTraced(w, traceDir)
	}
	o := &outcome{Workload: w.name, Seed: w.data.Seed, Traced: true}
	f, err := buildFederation(w, tmp)
	if err != nil {
		return nil, err
	}
	defer f.co.Close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ticks := readCPUTicks()
	rec := newRecorder()
	pt := &poolTimes{workerOf: map[*ag.Arena]int{}}
	pool := f.co.Pool()
	busy0 := pool.Stats().Busy.Load()
	start := time.Now()
	hist, err := replay(f, rec, pt)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	o.StealShare = stealShare(ticks, readCPUTicks())
	checkHistory(o, hist, w.cfg.Rounds)
	if w.checkpoint {
		checkCheckpoints(o, f.ckptDir, w.cfg.Rounds)
	}

	srv := f.co.Server()
	cfg := srv.Config()
	busy := time.Duration(pool.Stats().Busy.Load() - busy0)
	st := srv.ReplicaStoreStats()
	m := zeroLayers()
	for k, v := range map[string]float64{
		"trace.run_s":  wall.Seconds(),
		"data.synth_s": f.synth.Seconds(),
		"fedzkt.new_s": f.build.Seconds(),

		"sched.round_wall_s":    pt.wall.Seconds(),
		"sched.busy_s":          busy.Seconds(),
		"sched.utilization":     busy.Seconds() / pt.capacity.Seconds(),
		"fed.local_step_ms":     median(pt.stepMS),
		"fed.eval_ms_per_model": 1e3 * rec.seconds("fed.eval") / float64(rec.evalModels),
		"fed.upload_s":          rec.seconds("fed.upload"),
		"fed.download_apply_s":  rec.seconds("fed.download"),
		"fed.eval_devices_s":    rec.seconds("fed.eval"),

		"fedzkt.distill_s":       rec.seconds("fedzkt.distill"),
		"fedzkt.distill_iter_ms": 1e3 * rec.seconds("fedzkt.distill") / float64(cfg.DistillIters*cfg.Rounds),
		"fedzkt.absorb_s":        rec.seconds("fedzkt.absorb"),
		"fedzkt.publish_s":       rec.seconds("fedzkt.publish"),
		"fedzkt.eval_global_s":   rec.seconds("fedzkt.eval_global"),

		"fedzkt.store.hit_rate":         st.HitRate(),
		"fedzkt.store.prefetch_overlap": st.PrefetchOverlap(),
		"fedzkt.store.spill_read_mb":    float64(st.SpillReadBytes) / 1e6,
		"fedzkt.store.spill_write_mb":   float64(st.SpillWriteBytes) / 1e6,
		"fedzkt.resident_state_mb":      float64(srv.ResidentStateBytes()) / 1e6,
		"fedzkt.store.evictions":        float64(st.Evictions),
		"fedzkt.store.faults":           float64(st.ReplicaFaults),

		"fedzkt.checkpoint_encode_s": rec.seconds("fedzkt.checkpoint_encode"),
		"fedzkt.checkpoint_write_s":  rec.seconds("fedzkt.checkpoint_write"),
		"fedzkt.checkpoint_mb":       float64(rec.ckptBytes) / 1e6,

		"runtime.alloc_mb":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6,
		"runtime.gc_count":    float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_ms": float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"host.steal_share":    o.StealShare,
		"global_acc":          o.GlobalAcc,
		"mean_device_acc":     o.MeanDeviceAcc,
		"failed_share":        float64(o.Failed) / float64(o.Attempted),
		"trace.other_s":       (wall - rec.timed).Seconds(),
	} {
		m[k] = v
	}
	distribution(m, "sched.queue_wait_ms", pt.queue, false)
	distribution(m, "fed.local_update_ms", pt.local, true)

	// Probes: single-kernel timings on this workload's real state.
	sd, err := srv.ReplicaState(0)
	if err != nil {
		return nil, err
	}
	if err := probeCodec(m, srv.Codec(), sd); err != nil {
		return nil, err
	}
	if err := probeFrame(m, srv.Codec(), sd); err != nil {
		return nil, err
	}
	probeMatMul(m, f.ds.C*f.ds.H*f.ds.W, f.ds.H, f.ds.W, cfg.BatchSize, cfg.DistillBatch)

	o.Metrics = m
	return o, rec.writeTrace(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, w.data.Seed))
}

// zeroLayers returns every per-layer metric at 0, the value of a layer a
// workload does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// replay runs the coordinator's synchronous round engine (runSync in
// internal/fedzkt/coordinator.go) step by step through public calls:
// sample, local updates on the pool, upload and absorb, distill, publish
// and download, evaluate, checkpoint.
func replay(f *federation, rec *recorder, pt *poolTimes) (fed.History, error) {
	ctx := context.Background()
	co, srv := f.co, f.co.Server()
	cfg := srv.Config()
	devs := co.Devices()
	cdc := srv.Codec()
	identity := codec.Identity(cdc)
	local := fed.LocalConfig{
		Epochs: cfg.LocalEpochs, BatchSize: cfg.BatchSize, LR: cfg.DeviceLR,
		Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay, ProxMu: cfg.ProxMu,
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hist := make(fed.History, 0, cfg.Rounds)
	roundRNG := tensor.NewRand(cfg.Seed + 99)
	for round := 1; round <= cfg.Rounds; round++ {
		m := fed.RoundMetrics{Round: round}
		roundSpan := rec.tr.Begin("fed", "round").WithRound(round)
		rid := roundSpan.ID()
		m.Active = co.Sampler().Sample(len(devs), roundRNG)

		// Local phase: one task per sampled device on the pool.
		tasks := make([]sched.Task, len(m.Active))
		var runStart time.Time
		for pos, id := range m.Active {
			id := id
			tasks[pos] = sched.Task{Device: id, Run: func(ctx context.Context) error {
				begin := time.Now()
				arena, _ := sched.Scratch(ctx).(*ag.Arena)
				span := rec.tr.Begin("fed", "local_update").WithRound(round).WithParent(rid).WithTID(pt.tid(arena))
				rng := tensor.NewRand(cfg.Seed ^ (uint64(round)<<20 + uint64(id)<<4 + 0x5EED))
				d := devs[id]
				d.Scratch = arena
				_, err := d.LocalUpdate(local, rng)
				d.Scratch = nil
				span.End()
				el := time.Since(begin)
				steps := cfg.LocalEpochs * ((d.Data.Len() + cfg.BatchSize - 1) / cfg.BatchSize)
				pt.mu.Lock()
				pt.queue = append(pt.queue, msOf(begin.Sub(runStart)))
				pt.local = append(pt.local, msOf(el))
				pt.stepMS = append(pt.stepMS, msOf(el)/float64(steps))
				pt.mu.Unlock()
				return err
			}}
		}
		var results []sched.Result
		runStart = time.Now()
		_ = rec.call("sched", "run_round", round, rid, func() error {
			results = co.Pool().RunRound(ctx, round, tasks)
			return nil
		})
		wall := time.Since(runStart)
		pt.wall += wall
		pt.capacity += time.Duration(sched.EffectiveWorkers(len(tasks), workers)) * wall
		var completed []int
		for _, r := range results {
			switch r.Status {
			case sched.StatusCompleted:
				completed = append(completed, r.Device)
			case sched.StatusDropped:
				m.Dropped = append(m.Dropped, r.Device)
			case sched.StatusInjected:
				m.Injected = append(m.Injected, r.Device)
			default:
				return nil, fmt.Errorf("round %d device %d: %w", round, r.Device, r.Err)
			}
		}

		// Upload, then absorb in ascending-id order.
		ups := make([]nn.StateDict, len(completed))
		payloads := make([][]byte, len(completed))
		err := rec.call("fed.upload", "upload", round, rid, func() error {
			for i, id := range completed {
				if identity {
					ups[i] = devs[id].Upload()
					m.BytesUp += fed.WireBytes(ups[i].Numel(), cdc.Width())
					continue
				}
				b, numel, err := devs[id].UploadPayload(cdc)
				if err != nil {
					return err
				}
				payloads[i] = b
				m.BytesUp += fed.WireBytes(numel, cdc.Width())
			}
			return nil
		})
		if err == nil {
			err = rec.call("fedzkt.absorb", "absorb", round, rid, func() error {
				for i, id := range completed {
					var err error
					if identity {
						err = srv.Absorb(id, ups[i])
					} else {
						err = srv.AbsorbPayload(id, payloads[i])
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err == nil {
			err = rec.call("fedzkt.distill", "distill", round, rid, func() error {
				var err error
				m.InputGradNorm, err = srv.Distill(ctx, round)
				return err
			})
		}

		// Publish each completed device's replica and apply it on-device.
		for _, id := range completed {
			if err != nil {
				break
			}
			var sd nn.StateDict
			var b []byte
			numel := 0
			err = rec.call("fedzkt.publish", "publish", round, rid, func() error {
				var err error
				if identity {
					sd, err = srv.ReplicaState(id)
					if err == nil {
						numel = sd.Numel()
					}
					return err
				}
				b, numel, err = srv.ReplicaPayload(id)
				return err
			})
			if err != nil {
				break
			}
			m.BytesDown += fed.WireBytes(numel, cdc.Width())
			err = rec.call("fed.download", "download", round, rid, func() error {
				if identity {
					return devs[id].Download(sd)
				}
				return devs[id].DownloadPayload(b)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}

		if round%cfg.EvalEvery == 0 || round == cfg.Rounds {
			_ = rec.call("fedzkt.eval_global", "evaluate_global", round, rid, func() error {
				m.GlobalAcc = srv.EvaluateGlobal(f.ds)
				return nil
			})
			n := len(devs)
			if cfg.EvalDevices > 0 && cfg.EvalDevices < n {
				n = cfg.EvalDevices
			}
			_ = rec.call("fed.eval", "evaluate_devices", round, rid, func() error {
				m.DeviceAcc = fed.EvaluateAllParallel(devs[:n], f.ds, 64, cfg.Workers)
				return nil
			})
			rec.evalModels += n
			m.MeanDeviceAcc = fed.Mean(m.DeviceAcc)
		}
		m.ReplicaFaults = srv.TakeReplicaFaults()

		if cfg.CheckpointDir != "" && (round%cfg.CheckpointEvery == 0 || round == cfg.Rounds) {
			var buf bytes.Buffer
			err := rec.call("fedzkt.checkpoint_encode", "save_checkpoint", round, rid, func() error {
				return co.SaveCheckpoint(&buf)
			})
			if err == nil {
				err = rec.call("fedzkt.checkpoint_write", "save_checkpoint_file", round, rid, func() error {
					_, err := fedzkt.SaveCheckpointFile(cfg.CheckpointDir, round, buf.Bytes(), cfg.KeepCheckpoints)
					return err
				})
			}
			if err != nil {
				return nil, fmt.Errorf("round %d checkpoint: %w", round, err)
			}
			rec.ckptBytes += int64(buf.Len())
		}
		roundSpan.End()
		hist = append(hist, m)
	}
	return hist, nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// probeReps is how many times a probe repeats its call; the probe reports
// the median.
const probeReps = 15

// timeMedian runs fn probeReps times and returns the median duration.
func timeMedian(fn func() error) (time.Duration, error) {
	ds := make([]float64, probeReps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds)), nil
}

// probeCodec times codec.Encode and codec.DecodeInto of one replica state
// in the workload's codec, as dense-state MB per second.
func probeCodec(m map[string]float64, c codec.Codec, sd nn.StateDict) error {
	mb := float64(8*sd.Numel()) / 1e6
	var enc []byte
	d, err := timeMedian(func() error {
		var err error
		enc, err = codec.Encode(c, sd)
		return err
	})
	if err != nil {
		return err
	}
	m["codec.encode_mb_per_s"] = mb / d.Seconds()
	dst := sd.Clone()
	if d, err = timeMedian(func() error { return codec.DecodeInto(enc, dst) }); err != nil {
		return err
	}
	m["codec.decode_mb_per_s"] = mb / d.Seconds()
	return nil
}

// probeFrame times transport.WriteMessage and ReadMessage of one
// upload-sized frame carrying sd in the workload's codec.
func probeFrame(m map[string]float64, c codec.Codec, sd nn.StateDict) error {
	payload, err := codec.Encode(c, sd)
	if err != nil {
		return err
	}
	msg := &transport.Message{Type: transport.MsgUpload, Round: 1, Payload: payload}
	var frame bytes.Buffer
	d, err := timeMedian(func() error {
		frame.Reset()
		return transport.WriteMessage(&frame, msg)
	})
	if err != nil {
		return err
	}
	m["transport.frame_write_ms"] = msOf(d)
	raw := frame.Bytes()
	if d, err = timeMedian(func() error {
		_, err := transport.ReadMessage(bytes.NewReader(raw))
		return err
	}); err != nil {
		return err
	}
	m["transport.frame_read_ms"] = msOf(d)
	return nil
}

// probeMatMul times tensor.MatMulInto at the largest matmul of one mlp
// local step (batch × input · input × 256) and of one distillation-batch
// forward of the global model (its second convolution as im2col:
// 48 × 216 · 216 × batch·H/2·W/2).
func probeMatMul(m map[string]float64, inNumel, h, w, batch, distillBatch int) {
	rng := tensor.NewRand(7)
	fill := func(t *tensor.Tensor) *tensor.Tensor {
		d := t.Data()
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		return t
	}
	shapes := []struct {
		name    string
		m, k, n int
	}{
		{"tensor.matmul_local_us", batch, inNumel, 256},
		{"tensor.matmul_distill_us", 48, 24 * 9, distillBatch * (h / 2) * (w / 2)},
	}
	for _, s := range shapes {
		a, b, dst := fill(tensor.New(s.m, s.k)), fill(tensor.New(s.k, s.n)), tensor.New(s.m, s.n)
		d, _ := timeMedian(func() error { tensor.MatMulInto(dst, a, b); return nil })
		m[s.name] = float64(d) / 1e3
	}
}

// runLoopbackTraced runs the networked workload with device callbacks
// timestamped: the device side of round r runs from the last
// RoundSummary(r−1) (registration for r = 1) to the last Progress(r), the
// server side from there to the first RoundSummary(r).
func runLoopbackTraced(w workload, traceDir string) (*outcome, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tr := newNetTrace()
	o, err := runLoopback(w, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m := o.Metrics
	m["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["runtime.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["host.steal_share"] = o.StealShare
	m["global_acc"] = o.GlobalAcc
	m["mean_device_acc"] = o.MeanDeviceAcc
	m["failed_share"] = float64(o.Failed) / float64(o.Attempted)
	return o, tr.rec.writeTrace(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, w.cfg.Seed))
}

// loopbackLayers derives the networked workload's per-layer metrics from
// the device callbacks' timestamps and the server's session stats, and
// records each round's device and server side as spans.
func loopbackLayers(o *outcome, w workload, r *netRun, tr *netTrace) (map[string]float64, error) {
	m := zeroLayers()
	// Spans are recorded after the run, so the tracer reads a clock the
	// loop sets to each recorded timestamp.
	now := r.ready
	tr.rec.tr.SetClock(func() time.Time { return now })
	var devSide, srvSide time.Duration
	prev := r.ready
	for round := 1; round <= w.cfg.Rounds; round++ {
		p, okP := tr.progress[round]
		s, okS := tr.summary[round]
		if !okP || !okS {
			o.problem("round %d: missing device progress or round summary", round)
			break
		}
		now = prev
		roundSpan := tr.rec.tr.Begin("transport", "round").WithRound(round)
		dev := tr.rec.tr.Begin("transport", "device_side").WithRound(round).WithParent(roundSpan.ID())
		now = p
		dev.End()
		srv := tr.rec.tr.Begin("transport", "server_side").WithRound(round).WithParent(roundSpan.ID())
		now = s
		srv.End()
		roundSpan.End()
		devSide += p.Sub(prev)
		srvSide += s.Sub(p)
		prev = tr.lastSummary[round]
	}
	var up, down int64
	for _, s := range r.sessions {
		up += s.BytesUp
		down += s.BytesDown
		m["transport.resumes"] += float64(s.Resumes)
	}
	for _, h := range r.hist {
		m["transport.dropped_uploads"] += float64(h.DroppedUploads)
	}
	m["trace.run_s"] = r.run.Seconds()
	m["transport.device_side_s"] = devSide.Seconds()
	m["transport.server_side_s"] = srvSide.Seconds()
	m["transport.wire_up_mb"] = float64(up) / 1e6
	m["transport.wire_down_mb"] = float64(down) / 1e6
	m["trace.other_s"] = (r.run - devSide - srvSide).Seconds()

	// The server synthesises its dataset inside transport.NewServer; time
	// the same synthesis on its own.
	start := time.Now()
	ds, ok := data.ByName("synthmnist", w.sizes, w.cfg.Seed)
	if !ok {
		return nil, fmt.Errorf("unknown dataset synthmnist")
	}
	m["data.synth_s"] = time.Since(start).Seconds()
	c, err := codec.Get(codec.Float64)
	if err != nil {
		return nil, err
	}
	if err := probeCodec(m, c, r.state); err != nil {
		return nil, err
	}
	if err := probeFrame(m, c, r.state); err != nil {
		return nil, err
	}
	cfg := w.cfg
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 32
	}
	if cfg.DistillBatch == 0 {
		cfg.DistillBatch = 32
	}
	probeMatMul(m, ds.C*ds.H*ds.W, ds.H, ds.W, cfg.BatchSize, cfg.DistillBatch)
	return m, nil
}
