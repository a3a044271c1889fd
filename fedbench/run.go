package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/fedzkt/fedzkt/internal/data"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/fedzkt"
	"github.com/fedzkt/fedzkt/internal/nn"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
	"github.com/fedzkt/fedzkt/internal/transport"
)

// outcome is what one fresh-process repetition measured and checked.
type outcome struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Metrics holds the end-to-end metrics of an untraced repetition, or
	// the per-layer metrics of a traced one.
	Metrics map[string]float64 `json:"metrics"`
	// Attempted counts device-rounds; Failed counts device-rounds dropped,
	// failure-injected or failed, replica faults and dropped uploads.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Fingerprint is the SHA-256 of History.Fingerprint (the arithmetic
	// contract: exact mode repeats it byte for byte).
	Fingerprint     string    `json:"fingerprint"`
	GlobalAccSeries []float64 `json:"global_acc_series"`
	GlobalAcc       float64   `json:"global_acc"`
	MeanDeviceAcc   float64   `json:"mean_device_acc"`
	// Problems lists every failed output check; a repetition with any is
	// incorrect.
	Problems []string `json:"problems,omitempty"`
	// StealShare is the host's steal share while the repetition ran.
	StealShare float64 `json:"steal_share"`
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// federation is a built in-process workload.
type federation struct {
	ds      *data.Dataset
	co      *fedzkt.Coordinator
	synth   time.Duration // data.Make
	build   time.Duration // partition + fedzkt.New
	ckptDir string
}

// buildFederation synthesises the workload's dataset and builds its
// coordinator: the set-up a user pays before round 1. Spill files and
// checkpoints go under tmp.
func buildFederation(w workload, tmp string) (*federation, error) {
	f := &federation{}
	start := time.Now()
	ds, err := data.Make(w.data)
	if err != nil {
		return nil, err
	}
	f.ds = ds
	f.synth = time.Since(start)
	cfg := w.cfg
	if cfg.ReplicaStore == fedzkt.ReplicaStoreSpill {
		if cfg.SpillDir, err = os.MkdirTemp(tmp, "spill-"); err != nil {
			return nil, err
		}
	}
	if w.checkpoint {
		if f.ckptDir, err = os.MkdirTemp(tmp, "ckpt-"); err != nil {
			return nil, err
		}
		cfg.CheckpointDir, cfg.CheckpointEvery, cfg.KeepCheckpoints = f.ckptDir, 1, cfg.Rounds
	}
	start = time.Now()
	shards := partition.IID(ds.NumTrain(), w.devices, tensor.NewRand(w.data.Seed+1))
	if f.co, err = fedzkt.New(cfg, ds, w.archs, shards); err != nil {
		return nil, err
	}
	f.build = time.Since(start)
	return f, nil
}

// checkHistory fills the outcome's accounting and accuracy fields from a
// finished history and checks it covers every round.
func checkHistory(o *outcome, hist fed.History, rounds int) {
	if len(hist) != rounds {
		o.problem("history has %d rounds, want %d", len(hist), rounds)
	}
	for _, m := range hist {
		o.Attempted += len(m.Active)
		o.Failed += len(m.Dropped) + len(m.Injected) + len(m.ReplicaFaults) + m.DroppedUploads
		o.GlobalAccSeries = append(o.GlobalAccSeries, m.GlobalAcc)
	}
	sum := sha256.Sum256([]byte(hist.Fingerprint()))
	o.Fingerprint = hex.EncodeToString(sum[:])
	o.GlobalAcc = hist.FinalGlobalAcc()
	if o.MeanDeviceAcc == 0 {
		o.MeanDeviceAcc = hist.FinalMeanDeviceAcc()
	}
	for name, v := range map[string]float64{"global_acc": o.GlobalAcc, "mean_device_acc": o.MeanDeviceAcc} {
		if math.IsNaN(v) || v < 0 || v > 1 {
			o.problem("%s = %v outside [0, 1]", name, v)
		}
	}
	if o.Failed != 0 {
		o.problem("%d of %d device-rounds failed", o.Failed, o.Attempted)
	}
}

// checkCheckpoints verifies every checkpoint file a run wrote passes its
// CRC32C trailer check, one per round.
func checkCheckpoints(o *outcome, dir string, rounds int) {
	names, err := fedzkt.ListCheckpointFiles(dir)
	if err != nil {
		o.problem("listing checkpoints: %v", err)
		return
	}
	if len(names) != rounds {
		o.problem("%d checkpoint files, want %d", len(names), rounds)
	}
	for _, n := range names {
		if _, err := fedzkt.ReadCheckpointFile(n); err != nil {
			o.problem("checkpoint %s: %v", filepath.Base(n), err)
		}
	}
}

// runUntraced runs one repetition of w with tracing off and returns the
// end-to-end metrics.
func runUntraced(w workload, tmp string) (*outcome, error) {
	if w.net {
		return runLoopback(w, nil)
	}
	o := &outcome{Workload: w.name, Seed: w.data.Seed}
	start := time.Now()
	f, err := buildFederation(w, tmp)
	if err != nil {
		return nil, err
	}
	defer f.co.Close()
	setup := time.Since(start)

	ticks, cpu0 := readCPUTicks(), cpuTime()
	start = time.Now()
	hist, err := f.co.Run(context.Background())
	run := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	o.StealShare = stealShare(ticks, readCPUTicks())

	checkHistory(o, hist, w.cfg.Rounds)
	if w.checkpoint {
		checkCheckpoints(o, f.ckptDir, w.cfg.Rounds)
	}
	up, down := hist.TotalBytes()
	if err := f.co.Close(); err != nil {
		return nil, err
	}
	setupS, err := resample(w, tmp, setup)
	if err != nil {
		return nil, err
	}
	o.Metrics = map[string]float64{
		"setup_s":     setupS,
		"run_s":       run.Seconds(),
		"cpu_s":       cpu.Seconds(),
		"peak_rss_mb": rss,
		"wire_mb":     float64(up+down) / 1e6,
	}
	return o, nil
}

// resampleBudget bounds the extra set-ups resample makes.
const resampleBudget = time.Second

// resample refines a short set-up time: after the run (so the extra
// federations touch neither its timing nor its peak RSS) it builds the
// federation again while the set-ups so far took under resampleBudget,
// up to 25 in all, and returns the median in seconds. Each extra set-up
// starts on a collected heap, as the first did in a fresh process, so a
// garbage collection left over from the run does not slow some of them.
func resample(w workload, tmp string, first time.Duration) (float64, error) {
	samples := []float64{first.Seconds()}
	total := first
	for total < resampleBudget && len(samples) < 25 {
		runtime.GC()
		start := time.Now()
		f, err := buildFederation(w, tmp)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		if err := f.co.Close(); err != nil {
			return 0, err
		}
		samples = append(samples, d.Seconds())
		total += d
	}
	return median(samples), nil
}

// netTrace receives the device-side callbacks of a networked run; nil
// when untraced.
type netTrace struct {
	mu sync.Mutex
	// progress[r] is the last device's Progress(r) time, summary[r] the
	// first RoundSummary(r) and lastSummary[r] the last one.
	progress, summary, lastSummary map[int]time.Time
	rec                            *recorder
}

func newNetTrace() *netTrace {
	return &netTrace{progress: map[int]time.Time{}, summary: map[int]time.Time{}, lastSummary: map[int]time.Time{}, rec: newRecorder()}
}

func (t *netTrace) onProgress(round int) {
	now := time.Now()
	t.mu.Lock()
	t.progress[round] = now
	t.mu.Unlock()
}

func (t *netTrace) onSummary(round int) {
	now := time.Now()
	t.mu.Lock()
	if _, ok := t.summary[round]; !ok {
		t.summary[round] = now
	}
	t.lastSummary[round] = now
	t.mu.Unlock()
}

// netRun is one networked federation: set-up and run wall times, the
// server's history and session stats, and the devices' final accuracy.
type netRun struct {
	setup, run time.Duration
	ready      time.Time
	hist       fed.History
	sessions   []transport.SessionStats
	deviceAcc  float64
	// state is the first device's final model state (the frame and codec
	// probes' payload).
	state nn.StateDict
}

// initStateBytes is how many upstream bytes mark a session's initial
// state as arriving: far above the Hello frame, far below any model state.
const initStateBytes = 4096

// runNetwork runs w's networked federation over loopback TCP: a
// transport.Server and one RunDevice goroutine per arch. Set-up ends when
// every device has registered and its initial state is arriving.
func runNetwork(w workload, tr *netTrace) (*netRun, error) {
	start := time.Now()
	srv, err := transport.NewServer(transport.ServerConfig{
		Addr: "127.0.0.1:0", NumDevices: len(w.archs), Fed: w.cfg, Sizes: w.sizes,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type served struct {
		hist fed.History
		err  error
	}
	serverDone := make(chan served, 1)
	go func() {
		hist, err := srv.Run(ctx)
		serverDone <- served{hist, err}
	}()
	var wg sync.WaitGroup
	models := make([]nn.Module, len(w.archs))
	dsets := make([]*data.Dataset, len(w.archs))
	devErrs := make([]error, len(w.archs))
	for i, arch := range w.archs {
		cfg := transport.DeviceConfig{Addr: srv.Addr(), Arch: arch}
		if tr != nil {
			cfg.Progress = func(round int, _ float64) { tr.onProgress(round) }
			cfg.OnRoundSummary = func(s transport.RoundSummary) { tr.onSummary(s.Round) }
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			models[i], dsets[i], devErrs[i] = transport.RunDevice(ctx, cfg)
		}(i)
		// The server numbers devices in handshake order, and the number
		// picks the device's shard and seeds. Waiting for each
		// registration before dialling the next keeps them fixed.
		for !registered(srv.SessionStats(), i+1) {
			select {
			case s := <-serverDone:
				cancel()
				wg.Wait()
				return nil, fmt.Errorf("transport server stopped during registration: %v", s.err)
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	r := &netRun{}
	r.ready = time.Now()
	r.setup = r.ready.Sub(start)
	s := <-serverDone
	r.run = time.Since(r.ready)
	wg.Wait()
	if s.err != nil {
		return nil, s.err
	}
	for i, err := range devErrs {
		if err != nil {
			return nil, fmt.Errorf("device %d (%s): %w", i, w.archs[i], err)
		}
	}
	r.hist, r.sessions = s.hist, srv.SessionStats()
	accs := make([]float64, len(models))
	for i, m := range models {
		accs[i] = fed.Evaluate(m, dsets[i], 64)
	}
	r.deviceAcc = fed.Mean(accs)
	r.state = nn.CaptureState(models[0])
	return r, nil
}

// registered reports whether n devices have registered and their initial
// states are arriving.
func registered(st []transport.SessionStats, n int) bool {
	if len(st) < n {
		return false
	}
	for _, s := range st {
		if s.BytesUp < initStateBytes {
			return false
		}
	}
	return true
}

// runLoopback runs one repetition of the networked workload. With tr set
// it is the traced run and the caller derives the per-layer metrics.
func runLoopback(w workload, tr *netTrace) (*outcome, error) {
	o := &outcome{Workload: w.name, Seed: w.cfg.Seed, Traced: tr != nil}
	ticks, cpu0 := readCPUTicks(), cpuTime()
	r, err := runNetwork(w, tr)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	o.StealShare = stealShare(ticks, readCPUTicks())
	o.MeanDeviceAcc = r.deviceAcc
	checkHistory(o, r.hist, w.cfg.Rounds)
	up, down := r.hist.TotalBytes()
	var sessUp, sessDown int64
	for _, s := range r.sessions {
		sessUp += s.BytesUp
		sessDown += s.BytesDown
	}
	if up != sessUp || down != sessDown {
		o.problem("history traffic %d/%d B differs from session traffic %d/%d B", up, down, sessUp, sessDown)
	}
	o.Metrics = map[string]float64{
		"setup_s":     r.setup.Seconds(),
		"run_s":       r.run.Seconds(),
		"cpu_s":       cpu.Seconds(),
		"peak_rss_mb": peakRSSMB(),
		"wire_mb":     float64(up+down) / 1e6,
	}
	if tr != nil {
		var err error
		if o.Metrics, err = loopbackLayers(o, w, r, tr); err != nil {
			return nil, err
		}
	}
	return o, nil
}
