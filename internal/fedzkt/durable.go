package fedzkt

// Durable checkpoint files: the crash-consistency layer between the
// in-memory checkpoint codec (checkpoint.go) and the filesystem. A
// checkpoint file is the coordinator checkpoint bytes followed by a
// 4-byte little-endian CRC32C trailer over those bytes. Files are
// written atomically — temp file in the same directory, fsync, rename,
// directory fsync — so a crash at any instant leaves either the old
// complete file set or the new one, never a half-visible file under the
// final name. The CRC trailer catches what atomicity cannot: a torn
// write that did reach the final name (the chaos failpoint
// ckpt.write.torn models exactly that), silent media corruption, and
// truncation. Loading walks the retained files newest-first and rolls
// back to the most recent intact one, so one bad file costs one
// checkpoint interval, not the run.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/fedzkt/fedzkt/internal/chaos"
	"github.com/fedzkt/fedzkt/internal/fed"
)

// checkpointFileTrailer is the CRC32C trailer size.
const checkpointFileTrailer = 4

// Typed durable-checkpoint errors. Every distinct way a file can be
// unusable gets its own sentinel so callers (and tests) can tell
// truncation from corruption from absence.
var (
	// ErrNoCheckpoint reports that the checkpoint directory holds no
	// checkpoint files at all (a fresh start, not a failure).
	ErrNoCheckpoint = errors.New("fedzkt: no checkpoint files")
	// ErrCheckpointTruncated reports a file too short to even hold its
	// CRC trailer — a torn write caught before any content check.
	ErrCheckpointTruncated = errors.New("fedzkt: checkpoint file truncated")
	// ErrCheckpointChecksum reports a file whose bytes fail the CRC32C
	// trailer — a torn tail or corrupt media.
	ErrCheckpointChecksum = errors.New("fedzkt: checkpoint file checksum mismatch")
)

// CheckpointFileError wraps any durable-checkpoint failure with the file
// path and the byte offset at which the problem was detected.
type CheckpointFileError struct {
	Path   string
	Offset int64
	Err    error
}

func (e *CheckpointFileError) Error() string {
	return fmt.Sprintf("fedzkt: checkpoint file %s at byte offset %d: %v", e.Path, e.Offset, e.Err)
}

func (e *CheckpointFileError) Unwrap() error { return e.Err }

// checkpointFileName is the rotation-ordered name of round's file.
func checkpointFileName(round int) string {
	return fmt.Sprintf("checkpoint-%08d.fzkt", round)
}

// ListCheckpointFiles returns the directory's checkpoint files newest
// first (the zero-padded round number makes lexicographic order round
// order). A missing or empty directory returns ErrNoCheckpoint.
func ListCheckpointFiles(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.fzkt"))
	if err != nil {
		return nil, fmt.Errorf("fedzkt: listing checkpoints in %s: %w", dir, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// WriteCheckpointFile atomically writes data plus its CRC32C trailer to
// path: the bytes land in a same-directory temp file, are fsynced,
// renamed over path, and the directory is fsynced so the rename itself
// is durable. The chaos failpoint ckpt.write.torn, when armed, cuts the
// write short after the site argument's byte count (default 64) and
// still publishes the file without reporting failure — the torn tail a
// crash between write and fsync leaves behind, which the CRC trailer
// must catch on load.
func WriteCheckpointFile(path string, data []byte) error {
	full := make([]byte, 0, len(data)+checkpointFileTrailer)
	full = append(full, data...)
	var crc [checkpointFileTrailer]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(data, castagnoliCkpt))
	full = append(full, crc[:]...)

	torn := false
	if chaos.Fire(chaos.SiteCkptTorn) {
		n := int64(64)
		if v, ok := chaos.Arg(chaos.SiteCkptTorn); ok {
			n = v
		}
		if n < 0 {
			n = 0
		}
		if n < int64(len(full)) {
			full = full[:n]
			torn = true
		}
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return &CheckpointFileError{Path: path, Offset: 0, Err: err}
	}
	tmpName := tmp.Name()
	fail := func(off int64, err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return &CheckpointFileError{Path: path, Offset: off, Err: err}
	}
	if _, err := tmp.Write(full); err != nil {
		return fail(0, err)
	}
	if !torn {
		// A torn write models the crash window before fsync — skipping
		// the sync is part of the fault, not an oversight.
		if err := tmp.Sync(); err != nil {
			return fail(int64(len(full)), err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fail(int64(len(full)), err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return &CheckpointFileError{Path: path, Offset: 0, Err: err}
	}
	// Make the rename durable. Directory fsync support varies by
	// platform/filesystem; failure here cannot un-publish the file.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// castagnoliCkpt is the checkpoint trailer's CRC32C table (shared
// polynomial with the spill-record checksums).
var castagnoliCkpt = crc32.MakeTable(crc32.Castagnoli)

// ReadCheckpointFile reads path and verifies its CRC32C trailer,
// returning the checkpoint bytes without the trailer. Failures are typed
// (*CheckpointFileError wrapping ErrCheckpointTruncated /
// ErrCheckpointChecksum / the underlying I/O error) and name the byte
// offset at which the file went wrong.
func ReadCheckpointFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, &CheckpointFileError{Path: path, Offset: 0, Err: err}
	}
	if len(raw) < checkpointFileTrailer {
		return nil, &CheckpointFileError{Path: path, Offset: int64(len(raw)), Err: ErrCheckpointTruncated}
	}
	data := raw[:len(raw)-checkpointFileTrailer]
	want := binary.LittleEndian.Uint32(raw[len(data):])
	if got := crc32.Checksum(data, castagnoliCkpt); got != want {
		return nil, &CheckpointFileError{
			Path:   path,
			Offset: int64(len(data)),
			Err:    fmt.Errorf("stored CRC %08x, computed %08x: %w", want, got, ErrCheckpointChecksum),
		}
	}
	return data, nil
}

// SaveCheckpointFile writes round's checkpoint into dir (creating it)
// and prunes the oldest files beyond keep. Returns the written path.
func SaveCheckpointFile(dir string, round int, data []byte, keep int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("fedzkt: creating checkpoint dir: %w", err)
	}
	path := filepath.Join(dir, checkpointFileName(round))
	if err := WriteCheckpointFile(path, data); err != nil {
		return "", err
	}
	if keep > 0 {
		if names, err := ListCheckpointFiles(dir); err == nil && len(names) > keep {
			for _, old := range names[keep:] {
				_ = os.Remove(old)
			}
		}
	}
	return path, nil
}

// History returns the metrics of every round this federation has
// finalised — across Run calls, and across crash/resume when durable
// checkpoints carried the earlier rounds — as a copy.
func (c *Coordinator) History() fed.History {
	return append(fed.History(nil), c.hist...)
}

// checkpointDue reports whether the configuration asks for a durable
// checkpoint after round.
func (c *Coordinator) checkpointDue(round int) bool {
	cfg := c.cfg
	return cfg.CheckpointDir != "" && (round%cfg.CheckpointEvery == 0 || round == cfg.Rounds)
}

// writeCheckpoint writes the durable checkpoint of finalised round round.
// The chaos crash points bracket the write: crash.ckpt.pre dies with the
// previous checkpoint as the rollback target, crash.ckpt.post dies with
// the new file already durable.
func (c *Coordinator) writeCheckpoint(round int) error {
	chaos.Crash(chaos.SiteCrashCkptPre)
	var buf bytes.Buffer
	if err := c.SaveCheckpoint(&buf); err != nil {
		return err
	}
	if _, err := SaveCheckpointFile(c.cfg.CheckpointDir, round, buf.Bytes(), c.cfg.KeepCheckpoints); err != nil {
		return err
	}
	chaos.Crash(chaos.SiteCrashCkptPost)
	return nil
}

// resumeFromDir restores the coordinator from the newest intact,
// loadable checkpoint file in CheckpointDir. Files that fail their CRC
// (torn writes) or are rejected by the checkpoint codec are skipped
// oldest-ward — the rollback path — and reported only if no file loads.
// An empty directory is a fresh start, not an error.
func (c *Coordinator) resumeFromDir() error {
	if c.cfg.CheckpointDir == "" {
		return fmt.Errorf("fedzkt: Config.Resume requires Config.CheckpointDir")
	}
	names, err := ListCheckpointFiles(c.cfg.CheckpointDir)
	if errors.Is(err, ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return err
	}
	var faults []error
	for _, path := range names {
		data, err := ReadCheckpointFile(path)
		if err != nil {
			faults = append(faults, err)
			continue
		}
		// LoadCheckpoint is all-or-nothing, so a rejected file leaves the
		// coordinator clean for the next (older) candidate.
		if err := c.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			faults = append(faults, &CheckpointFileError{Path: path, Offset: 0, Err: err})
			continue
		}
		return nil
	}
	return fmt.Errorf("fedzkt: no loadable checkpoint in %s: %w", c.cfg.CheckpointDir, errors.Join(faults...))
}
