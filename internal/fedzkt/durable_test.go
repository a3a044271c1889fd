package fedzkt

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/fed"
	"github.com/fedzkt/fedzkt/internal/partition"
	"github.com/fedzkt/fedzkt/internal/tensor"
)

// durableCoordinator builds the small two-device federation the durability
// tests run: synchronous engine, full participation — the regime in which
// a resumed run must replay the uninterrupted trajectory bit for bit.
func durableCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	ds := tinyDataset(77)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(2))
	c, err := New(cfg, ds, []string{"mlp", "lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

var (
	baselineOnce sync.Once
	baselineFP   string
)

// baselineFingerprint runs the durable test federation uninterrupted once
// and caches its history fingerprint — the identity every crash/corrupt
// resume below must land on.
func baselineFingerprint(t *testing.T) string {
	t.Helper()
	baselineOnce.Do(func() {
		c := durableCoordinator(t, tinyConfig())
		hist, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("baseline run: %v", err)
		}
		baselineFP = hist.Fingerprint()
	})
	if baselineFP == "" {
		t.Fatal("baseline fingerprint unavailable (earlier failure)")
	}
	return baselineFP
}

func TestDurableFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, checkpointFileName(1))
	data := []byte("the checkpoint body")
	if err := WriteCheckpointFile(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: got %q, want %q", got, data)
	}
	// No temp files left behind.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("directory holds %d entries after atomic write, want 1", len(names))
	}

	// A file too short for its trailer is a typed truncation error naming
	// the path and offset.
	if err := os.WriteFile(path, data[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadCheckpointFile(path)
	var cfe *CheckpointFileError
	if !errors.As(err, &cfe) || !errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("want CheckpointFileError wrapping ErrCheckpointTruncated, got %v", err)
	}
	if cfe.Path != path || cfe.Offset != 2 {
		t.Fatalf("error names path=%q offset=%d, want %q offset 2", cfe.Path, cfe.Offset, path)
	}

	// A flipped payload byte fails the CRC trailer.
	if err := WriteCheckpointFile(path, data); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadCheckpointFile(path)
	if !errors.As(err, &cfe) || !errors.Is(err, ErrCheckpointChecksum) {
		t.Fatalf("want CheckpointFileError wrapping ErrCheckpointChecksum, got %v", err)
	}
	if cfe.Path != path || cfe.Offset != int64(len(data)) {
		t.Fatalf("checksum error names path=%q offset=%d, want %q offset %d", cfe.Path, cfe.Offset, path, len(data))
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("error message %q does not name path and byte offset", err)
	}

	// An empty (or missing) directory is ErrNoCheckpoint.
	if _, err := ListCheckpointFiles(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint for empty dir, got %v", err)
	}
	if _, err := ListCheckpointFiles(filepath.Join(dir, "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint for missing dir, got %v", err)
	}
}

func TestDurableRotation(t *testing.T) {
	dir := t.TempDir()
	for round := 1; round <= 5; round++ {
		if _, err := SaveCheckpointFile(dir, round, []byte("round"), 2); err != nil {
			t.Fatal(err)
		}
	}
	names, err := ListCheckpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("rotation kept %d files, want 2: %v", len(names), names)
	}
	want := []string{checkpointFileName(5), checkpointFileName(4)}
	for i, n := range names {
		if filepath.Base(n) != want[i] {
			t.Fatalf("retained files %v, want newest-first %v", names, want)
		}
	}
}

// TestDurableTornWriteRollback: the chaos failpoint tears the final
// round's checkpoint write (published without fsync, cut short — the
// classic torn tail), so the newest file fails its CRC on resume and the
// coordinator rolls back to the previous intact checkpoint, re-runs the
// lost round, and still lands on the uninterrupted run's fingerprint.
func TestDurableTornWriteRollback(t *testing.T) {
	want := baselineFingerprint(t)
	dir := t.TempDir()

	cfg := tinyConfig()
	cfg.CheckpointDir = dir
	plan, err := chaos.Parse("ckpt.write.torn@16=on:3")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Activate(plan)
	c := durableCoordinator(t, cfg)
	_, err = c.Run(context.Background())
	chaos.Deactivate()
	if err != nil {
		t.Fatalf("torn-write run: %v", err)
	}
	if got := plan.Fired(chaos.SiteCkptTorn); got != 1 {
		t.Fatalf("torn failpoint fired %d times, want 1", got)
	}

	// The newest file (round 3) is torn: present under its final name but
	// failing the CRC trailer.
	names, err := ListCheckpointFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(names[0]) != checkpointFileName(3) {
		t.Fatalf("newest file is %s, want %s", names[0], checkpointFileName(3))
	}
	if _, err := ReadCheckpointFile(names[0]); !errors.Is(err, ErrCheckpointChecksum) && !errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("torn file should fail its CRC, got %v", err)
	}

	// Resume rolls back to round 2's checkpoint and re-runs round 3.
	cfg.Resume = true
	rc := durableCoordinator(t, cfg)
	hist, err := rc.Run(context.Background())
	if err != nil {
		t.Fatalf("rollback resume: %v", err)
	}
	if len(hist) != 1 || hist[0].Round != 3 {
		t.Fatalf("resume re-ran rounds %v, want exactly round 3", hist)
	}
	if got := rc.History().Fingerprint(); got != want {
		t.Fatalf("rolled-back resume diverged from the uninterrupted run:\n got %q\nwant %q", got, want)
	}
}

// TestCrashResumeFingerprintIdentity is the in-process crash-recovery
// soak: the coordinator dies at a seeded crash point mid-federation
// (after round 2's durable checkpoint), a fresh process-equivalent
// coordinator resumes from the checkpoint directory, and the full
// history's fingerprint is byte-identical to the uninterrupted run's.
func TestCrashResumeFingerprintIdentity(t *testing.T) {
	want := baselineFingerprint(t)
	dir := t.TempDir()

	cfg := tinyConfig()
	cfg.CheckpointDir = dir

	type crashed struct{ site string }
	prev := chaos.SetCrashHandler(func(site string) { panic(crashed{site}) })
	defer chaos.SetCrashHandler(prev)
	plan, err := chaos.Parse("seed=5;crash.round.end=on:2")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Activate(plan)

	// "Process" one: run until the crash point kills it.
	func() {
		defer func() {
			r := recover()
			cr, ok := r.(crashed)
			if !ok {
				t.Fatalf("want crash panic from chaos handler, got %v", r)
			}
			if cr.site != chaos.SiteCrashRoundEnd {
				t.Fatalf("crashed at site %q, want %q", cr.site, chaos.SiteCrashRoundEnd)
			}
		}()
		c := durableCoordinator(t, cfg)
		_, _ = c.Run(context.Background())
		t.Error("run returned instead of crashing")
	}()
	chaos.Deactivate()
	assertNoEngineGoroutines(t)

	// "Process" two: a fresh coordinator, chaos disarmed (a restarted
	// process starts with zeroed hit counters anyway), resumes from the
	// latest durable checkpoint and finishes the federation.
	cfg.Resume = true
	rc := durableCoordinator(t, cfg)
	hist, err := rc.Run(context.Background())
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if len(hist) != 1 || hist[0].Round != 3 {
		t.Fatalf("resume re-ran rounds %v, want exactly round 3", hist)
	}
	full := rc.History()
	if len(full) != cfg.Rounds {
		t.Fatalf("resumed history has %d rounds, want %d", len(full), cfg.Rounds)
	}
	if got := full.Fingerprint(); got != want {
		t.Fatalf("crash-resumed run diverged from the uninterrupted run:\n got %q\nwant %q", got, want)
	}
}

// TestCrashResumePipelined is the crash-recovery soak at PipelineDepth 1:
// the round-end crash point fires on the calling goroutine (where the
// panicking handler is recovered) while the server stage is already
// distilling round 3, and the resume re-runs exactly the first round the
// crashed run had not finalised. A pipelined resume is consistent, not a
// replay, so this pins round coverage rather than byte identity.
func TestCrashResumePipelined(t *testing.T) {
	cfg := tinyConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.PipelineDepth = 1

	type crashed struct{ site string }
	prev := chaos.SetCrashHandler(func(site string) { panic(crashed{site}) })
	defer chaos.SetCrashHandler(prev)
	plan, err := chaos.Parse("seed=5;crash.round.end=on:2")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Activate(plan)
	var crashedHist fed.History
	func() {
		c := durableCoordinator(t, cfg)
		defer func() {
			r := recover()
			if cr, ok := r.(crashed); !ok || cr.site != chaos.SiteCrashRoundEnd {
				t.Fatalf("want a %q crash panic on the calling goroutine, got %v", chaos.SiteCrashRoundEnd, r)
			}
			crashedHist = c.History()
		}()
		_, _ = c.Run(context.Background())
		t.Error("run returned instead of crashing")
	}()
	chaos.Deactivate()
	assertNoEngineGoroutines(t)
	if len(crashedHist) != 2 {
		t.Fatalf("crashed run finalised %d rounds, want 2", len(crashedHist))
	}

	cfg.Resume = true
	rc := durableCoordinator(t, cfg)
	hist, err := rc.Run(context.Background())
	if err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if len(hist) != 1 || hist[0].Round != 3 {
		t.Fatalf("resume re-ran rounds %v, want exactly round 3", hist)
	}
	full := rc.History()
	if len(full) != cfg.Rounds {
		t.Fatalf("resumed history has %d rounds, want %d", len(full), cfg.Rounds)
	}
	for i, m := range full {
		if m.Round != i+1 || len(m.DeviceAcc) != 2 {
			t.Fatalf("resumed history position %d holds round %d with %d device accuracies", i, m.Round, len(m.DeviceAcc))
		}
	}
	if got, want := full[:2].Fingerprint(), crashedHist.Fingerprint(); got != want {
		t.Fatalf("checkpointed rounds changed across the resume:\n got %q\nwant %q", got, want)
	}
}

// TestLoadCheckpointAllOrNothing: a checkpoint that fails validation —
// a truncated replica payload, a corrupt optimiser snapshot — must leave
// the target server byte-identical to its pre-load state (satellite of
// the durability tentpole: stage then swap, never partial state).
func TestLoadCheckpointAllOrNothing(t *testing.T) {
	cfg := tinyConfig()
	cfg.DistillIters = 2
	src, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"mlp", "lenet-s"} {
		if _, err := src.Register(arch, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.Distill(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	blob, err := src.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Decode the gob body so individual fields can be corrupted while the
	// framing stays valid — the corruption a header check cannot catch.
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(blob[5:])).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	reframe := func(cp checkpoint) []byte {
		var buf bytes.Buffer
		buf.Write(blob[:5])
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	corruptions := map[string]func(cp checkpoint) checkpoint{
		"truncated replica payload": func(cp checkpoint) checkpoint {
			cp.Replicas = append([][]byte(nil), cp.Replicas...)
			cp.Replicas[1] = cp.Replicas[1][:len(cp.Replicas[1])/2]
			return cp
		},
		"replica/arch count mismatch": func(cp checkpoint) checkpoint {
			cp.Replicas = cp.Replicas[:1]
			return cp
		},
		"unknown architecture": func(cp checkpoint) checkpoint {
			cp.Archs = []string{"mlp", "no-such-arch"}
			return cp
		},
		"corrupt optimiser state": func(cp checkpoint) checkpoint {
			cp.GenOpt.Slots = [][]float64{{1, 2, 3}}
			return cp
		},
		"global state dict mismatch": func(cp checkpoint) checkpoint {
			cp.Global, cp.Gen = cp.Gen, cp.Global
			return cp
		},
	}

	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			// A target with its own nontrivial state, so "unchanged" is a
			// meaningful assertion rather than comparing two zero states.
			dst, err := NewServer(cfg, tinyShape(), 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, arch := range []string{"mlp", "lenet-s"} {
				if _, err := dst.Register(arch, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := dst.Distill(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			before, err := dst.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.LoadCheckpoint(bytes.NewReader(reframe(corrupt(cp)))); err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			after, err := dst.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("rejected load mutated server state")
			}
			// The untouched server still accepts the intact checkpoint.
			if err := dst.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
				t.Fatalf("intact checkpoint rejected after failed load: %v", err)
			}
		})
	}
}

// truncateEveryByte attempts load on every strict prefix of blob and
// reports the first prefix that panics or loads without error. A failed
// load is read-only (the all-or-nothing contract this file pins from the
// state side too), so the offsets can be fanned out across CPUs — which
// is what makes every-byte coverage of a real checkpoint affordable.
func truncateEveryByte(t *testing.T, blob []byte, load func([]byte) error) {
	t.Helper()
	workers := runtime.GOMAXPROCS(0)
	faults := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n < len(blob); n += workers {
				msg := func() (msg string) {
					defer func() {
						if r := recover(); r != nil {
							msg = fmt.Sprintf("truncation at byte %d of %d panicked: %v", n, len(blob), r)
						}
					}()
					if err := load(blob[:n]); err == nil {
						return fmt.Sprintf("truncation at byte %d of %d loaded without error", n, len(blob))
					}
					return ""
				}()
				if msg != "" {
					select {
					case faults <- msg:
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(faults)
	for msg := range faults {
		t.Fatal(msg)
	}
}

// TestCheckpointTruncationEveryByte cuts a valid server checkpoint and a
// valid coordinator checkpoint at every byte boundary and asserts each
// prefix fails with a clean error — never a panic, never partial state.
// The fixtures use the smallest architecture so the quadratic
// bytes-processed cost of decoding every prefix stays test-sized.
func TestCheckpointTruncationEveryByte(t *testing.T) {
	if testing.Short() {
		t.Skip("every-byte truncation sweep is quadratic in blob size; run without -short")
	}
	cfg := tinyConfig()
	cfg.GlobalArch = "lenet-s"

	// Server blob.
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Register("lenet-s", nil); err != nil {
		t.Fatal(err)
	}
	srvBlob, err := srv.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator blob (carries the server blob plus cursor and history).
	// The cursor and history are set directly — running rounds would grow
	// the blob with optimiser state without adding framing coverage.
	ds := tinyDataset(77)
	shards := partition.IID(ds.NumTrain(), 2, tensor.NewRand(2))
	co, err := New(cfg, ds, []string{"lenet-s"}, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = co.Close() })
	co.hist = fed.History{{Round: 1}}
	co.nextRound = 2
	var coBuf bytes.Buffer
	if err := co.SaveCheckpoint(&coBuf); err != nil {
		t.Fatal(err)
	}
	coBlob := coBuf.Bytes()
	t.Logf("server blob %d bytes, coordinator blob %d bytes", len(srvBlob), len(coBlob))

	t.Run("server", func(t *testing.T) {
		truncateEveryByte(t, srvBlob, func(b []byte) error {
			return srv.LoadCheckpoint(bytes.NewReader(b))
		})
		// No truncated prefix left partial state behind: the server still
		// serialises to exactly its pre-test bytes.
		after, err := srv.CheckpointBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, srvBlob) {
			t.Fatal("a truncated load mutated server state")
		}
	})

	t.Run("coordinator", func(t *testing.T) {
		truncateEveryByte(t, coBlob, func(b []byte) error {
			return co.LoadCheckpoint(bytes.NewReader(b))
		})
		if co.nextRound != 2 || len(co.hist) != 1 {
			t.Fatalf("a truncated load moved the cursor/history to %d/%d", co.nextRound, len(co.hist))
		}
		// The intact blob still loads after every rejected prefix.
		if err := co.LoadCheckpoint(bytes.NewReader(coBlob)); err != nil {
			t.Fatalf("intact coordinator checkpoint rejected: %v", err)
		}
	})
}

// TestResumeSkipsCorruptAndReportsWhenNoneLoad covers resumeFromDir's
// two edge paths: every file corrupt → a joined error naming each fault;
// Resume without a directory → configuration error; Resume with an empty
// directory → fresh start.
func TestResumeSkipsCorruptAndReportsWhenNoneLoad(t *testing.T) {
	dir := t.TempDir()
	for round := 1; round <= 2; round++ {
		path := filepath.Join(dir, checkpointFileName(round))
		if err := os.WriteFile(path, []byte("garbage-not-a-checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := tinyConfig()
	cfg.CheckpointDir = dir
	cfg.Resume = true
	c := durableCoordinator(t, cfg)
	_, err := c.Run(context.Background())
	if err == nil {
		t.Fatal("want error when every checkpoint file is corrupt")
	}
	if !strings.Contains(err.Error(), "no loadable checkpoint") {
		t.Fatalf("want no-loadable-checkpoint error, got %v", err)
	}

	badCfg := tinyConfig()
	badCfg.Resume = true
	bad := durableCoordinator(t, badCfg)
	if _, err := bad.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("want Resume-requires-CheckpointDir error, got %v", err)
	}

	freshCfg := tinyConfig()
	freshCfg.Rounds = 1
	freshCfg.CheckpointDir = t.TempDir()
	freshCfg.Resume = true
	fresh := durableCoordinator(t, freshCfg)
	hist, err := fresh.Run(context.Background())
	if err != nil {
		t.Fatalf("resume from empty dir should start fresh: %v", err)
	}
	if len(hist) != 1 {
		t.Fatalf("fresh-start run finalised %d rounds, want 1", len(hist))
	}
}
