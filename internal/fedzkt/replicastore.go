package fedzkt

// The replica slot store behind the cohort slot API.
//
// Every member's codec container lives in its cohort's tieredSlots: an
// LRU hot set of byte buffers, backed by a fixed-stride spill file
// (codec.SpillFile) that dirty entries are written to on eviction. The
// store mode only sets the hot-set bound: the memory store has none, so
// it never evicts and never creates the file; the spill store sizes the
// hot set to the teacher/transfer-back window. Three properties make the
// tier invisible to the arithmetic:
//
//   - byte identity: both modes hold exactly the same container bytes;
//     the spill round trip is a verbatim byte copy, so fingerprints are
//     identical with the tier on or off (the float64 container itself is
//     bit-exact, pinned by the codec tests).
//   - virgin reconstruction: a slot that has never been written is not
//     stored at all. Its content is defined as the encoding of the
//     device's seeded initial state, rebuilt on first touch from the
//     registration seed — bit-identical to what eager registration would
//     have stored, which is what makes million-device registration O(1)
//     per device in both memory and disk.
//   - perfect prefetch: teacher draws come from a seeded, replayable
//     sampling stream and transfer-back windows are a pure function of
//     (round, iteration), so the store can load the next iteration's
//     members while the current one computes. Prefetch loads take the
//     same per-cohort lock as checkouts — the overlap won is against
//     distillation compute (which holds no store locks), not against
//     other store traffic — and never touch an existing entry's buffer.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/fedzkt/fedzkt/internal/codec"
	"github.com/fedzkt/fedzkt/internal/nn"
)

// Replica store modes for Config.ReplicaStore.
const (
	// ReplicaStoreMemory keeps every member's slot in an unbounded hot set
	// with no spill file (also the "" default).
	ReplicaStoreMemory = "memory"
	// ReplicaStoreSpill keeps an LRU hot set per cohort shard and spills
	// cold members' encoded buffers to a fixed-stride disk file, so
	// resident replica state is bounded by the hot-set size instead of the
	// device count.
	ReplicaStoreSpill = "spill"
)

// storeCounters aggregates slot-store traffic across every cohort and
// shard of one server. All fields are monotonic and safe for concurrent
// update (the prefetch goroutine races the checkout path by design).
type storeCounters struct {
	hits, misses     atomic.Int64
	prefetchIssued   atomic.Int64 // ids handed to the prefetcher
	prefetchLoaded   atomic.Int64 // loads the prefetcher performed
	prefetchHits     atomic.Int64 // checkout hits served by a prefetched entry
	initBuilds       atomic.Int64 // virgin slots rebuilt from their registration seed
	evictions        atomic.Int64
	replicaFaults    atomic.Int64
	spillWriteErrors atomic.Int64
}

// ReplicaStoreStats is a point-in-time snapshot of the server's replica
// store: residency, hot-set effectiveness, prefetch overlap and spill
// traffic. Both modes count hits, misses and prefetches; the memory
// store never evicts, so its eviction and spill fields stay zero.
type ReplicaStoreStats struct {
	// Mode is the store mode in effect ("memory" or "spill").
	Mode string
	// Shards is the number of cohort-store shards.
	Shards int
	// HotEntries and HotBytes describe the currently resident hot set
	// across all cohorts and shards.
	HotEntries int
	HotBytes   int64
	// Hits and Misses count checkout lookups served from the hot set vs
	// loaded (from spill or a virgin rebuild).
	Hits, Misses int64
	// PrefetchIssued, PrefetchLoaded and PrefetchHits describe the
	// prefetcher: ids it was asked to warm, loads it actually performed,
	// and checkout lookups that found an entry it loaded.
	PrefetchIssued, PrefetchLoaded, PrefetchHits int64
	// InitBuilds counts virgin slots materialised from their registration
	// seed (never stored anywhere until first written).
	InitBuilds int64
	// Evictions counts hot-set evictions.
	Evictions int64
	// SpillReads/SpillWrites and SpillReadBytes/SpillWriteBytes count
	// record I/O against the spill files; SpillRecords is how many
	// distinct members currently have a spilled record.
	SpillReads, SpillWrites         int64
	SpillReadBytes, SpillWriteBytes int64
	SpillRecords                    int
	// ReplicaFaults counts members dropped from a phase because their
	// stored bytes failed to load or decode (see RoundMetrics.ReplicaFaults).
	ReplicaFaults int64
}

// HitRate returns hot-set hits over all lookups (1 when idle).
func (s ReplicaStoreStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 1
	}
	return float64(s.Hits) / float64(total)
}

// PrefetchOverlap returns the fraction of would-be cold lookups the
// prefetcher absorbed: prefetched hits over prefetched hits plus misses
// (0 when nothing was cold).
func (s ReplicaStoreStats) PrefetchOverlap() float64 {
	total := s.PrefetchHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(total)
}

// Sub returns the per-round delta between two snapshots of the same
// store (monotonic counters subtract; residency fields keep s's values).
func (s ReplicaStoreStats) Sub(prev ReplicaStoreStats) ReplicaStoreStats {
	d := s
	d.Hits -= prev.Hits
	d.Misses -= prev.Misses
	d.PrefetchIssued -= prev.PrefetchIssued
	d.PrefetchLoaded -= prev.PrefetchLoaded
	d.PrefetchHits -= prev.PrefetchHits
	d.InitBuilds -= prev.InitBuilds
	d.Evictions -= prev.Evictions
	d.SpillReads -= prev.SpillReads
	d.SpillWrites -= prev.SpillWrites
	d.SpillReadBytes -= prev.SpillReadBytes
	d.SpillWriteBytes -= prev.SpillWriteBytes
	d.ReplicaFaults -= prev.ReplicaFaults
	return d
}

// hotEntry is one resident member buffer in a cohort's hot set, linked
// into the LRU list (head = most recent). The buffer is owned by the
// entry and is never recycled on eviction — a lease that borrowed the
// bytes keeps them alive through the garbage collector — so concurrent
// readers can never observe a reused buffer.
type hotEntry struct {
	local      int
	enc        []byte
	dirty      bool // differs from (or absent in) the spill record
	prefetched bool // loaded by the prefetcher, not yet hit
	prev, next *hotEntry
}

// tieredSlots is one cohort shard's slot storage: the hot set, the LRU
// list, the spill file (created lazily at first eviction)
// and the virgin-reconstruction hook. All access is serialised by mu;
// the prefetcher performs its loads under the same lock, so record reads
// can never race an eviction's write of the same slot.
type tieredSlots struct {
	mu   sync.Mutex
	hot  map[int]*hotEntry
	head *hotEntry
	tail *hotEntry
	file *codec.SpillFile

	// capFn returns the live hot-set bound (members keep registering
	// after the store is built, and the auto policy depends on the final
	// cohort size).
	capFn func() int
	// spillPath names the lazily created spill file.
	spillPath string
	// init rebuilds a virgin member's encoded container from its
	// registration seed.
	init func(local int) ([]byte, error)

	counters *storeCounters
}

func newTieredSlots(spillPath string, capFn func() int, init func(int) ([]byte, error), counters *storeCounters) *tieredSlots {
	return &tieredSlots{
		hot:       make(map[int]*hotEntry),
		capFn:     capFn,
		spillPath: spillPath,
		init:      init,
		counters:  counters,
	}
}

// lruUnlink removes e from the LRU list.
func (ts *tieredSlots) lruUnlink(e *hotEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		ts.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		ts.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruFront pushes e to the most-recent end.
func (ts *tieredSlots) lruFront(e *hotEntry) {
	e.prev, e.next = nil, ts.head
	if ts.head != nil {
		ts.head.prev = e
	}
	ts.head = e
	if ts.tail == nil {
		ts.tail = e
	}
}

// touch moves an existing entry to the front.
func (ts *tieredSlots) touch(e *hotEntry) {
	if ts.head == e {
		return
	}
	ts.lruUnlink(e)
	ts.lruFront(e)
}

// insert adds a new entry at the front and evicts past the bound.
// Callers hold mu.
func (ts *tieredSlots) insert(e *hotEntry) error {
	ts.hot[e.local] = e
	ts.lruFront(e)
	return ts.evictOver()
}

// evictOver evicts least-recent entries until the hot set is within its
// bound, writing dirty buffers to the spill file. Callers hold mu.
func (ts *tieredSlots) evictOver() error {
	bound := ts.capFn()
	if bound < 1 {
		bound = 1
	}
	for len(ts.hot) > bound {
		e := ts.tail
		if e == nil {
			break
		}
		if e.dirty {
			span := tracer().Begin("store", "spill_write")
			if err := ts.ensureFile(len(e.enc)); err != nil {
				span.End()
				ts.counters.spillWriteErrors.Add(1)
				return err
			}
			err := ts.file.Write(e.local, e.enc)
			span.End()
			if err != nil {
				ts.counters.spillWriteErrors.Add(1)
				return err
			}
		}
		ts.lruUnlink(e)
		delete(ts.hot, e.local)
		ts.counters.evictions.Add(1)
	}
	return nil
}

// ensureFile lazily creates the spill file sized to the first evicted
// record. Container sizes are a pure function of (layout, codec), so one
// cohort's records are all the same length; the record capacity adds
// headroom in case a re-encoded install ever differs by a few bytes.
func (ts *tieredSlots) ensureFile(recLen int) error {
	if ts.file != nil {
		return nil
	}
	f, err := codec.CreateSpill(ts.spillPath, recLen+64)
	if err != nil {
		return err
	}
	ts.file = f
	return nil
}

// load fetches a non-resident member's bytes: from the spill file when a
// record exists, else by rebuilding the virgin initial state. Callers
// hold mu.
func (ts *tieredSlots) load(local int) ([]byte, error) {
	if ts.file != nil && ts.file.Written(local) {
		span := tracer().Begin("store", "spill_load")
		b, err := ts.file.Read(local, nil)
		span.End()
		return b, err
	}
	ts.counters.initBuilds.Add(1)
	return ts.init(local)
}

// get returns member local's container bytes, making it hot. The bytes
// are owned by the store; callers decode or copy, and mutate a slot only
// through put/putBytes. A load or decode-source failure is returned for
// the caller to degrade on (drop the member, record a fault).
func (ts *tieredSlots) get(local int) ([]byte, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if e, ok := ts.hot[local]; ok {
		ts.counters.hits.Add(1)
		if e.prefetched {
			e.prefetched = false
			ts.counters.prefetchHits.Add(1)
		}
		ts.touch(e)
		return e.enc, nil
	}
	ts.counters.misses.Add(1)
	enc, err := ts.load(local)
	if err != nil {
		return nil, err
	}
	e := &hotEntry{local: local, enc: enc}
	if err := ts.insert(e); err != nil {
		return nil, err
	}
	return e.enc, nil
}

// put replaces member local's bytes with the encoding of sd, reusing the
// hot buffer when the member is resident. The entry becomes dirty (the
// spill record, if any, is stale until the next eviction).
func (ts *tieredSlots) put(local int, c codec.Codec, sd nn.StateDict) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.hot[local]
	if !ok {
		e = &hotEntry{local: local}
	}
	enc, err := c.Append(e.enc[:0], sd)
	if err != nil {
		return err
	}
	e.enc = enc
	e.dirty = true
	e.prefetched = false
	if ok {
		ts.touch(e)
		return ts.evictOver()
	}
	return ts.insert(e)
}

// putBytes replaces member local's bytes with a copy of b (an installed
// payload), marking the entry dirty.
func (ts *tieredSlots) putBytes(local int, b []byte) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.hot[local]
	if !ok {
		e = &hotEntry{local: local}
	}
	e.enc = append(e.enc[:0], b...)
	e.dirty = true
	e.prefetched = false
	if ok {
		ts.touch(e)
		return ts.evictOver()
	}
	return ts.insert(e)
}

// prefetchOne warms member local if it is cold, on the prefetcher's
// goroutine. Load errors are ignored here — the corresponding checkout
// will rediscover them on its own path and degrade there.
func (ts *tieredSlots) prefetchOne(local int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.hot[local]; ok {
		return
	}
	enc, err := ts.load(local)
	if err != nil {
		return
	}
	ts.counters.prefetchLoaded.Add(1)
	_ = ts.insert(&hotEntry{local: local, enc: enc, prefetched: true})
}

// virgin reports whether member local has neither a hot entry nor a
// spill record — its content is still the seeded initial state.
func (ts *tieredSlots) virgin(local int) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.hot[local]; ok {
		return false
	}
	return ts.file == nil || !ts.file.Written(local)
}

// residency reports the hot set's entry count and byte footprint.
func (ts *tieredSlots) residency() (entries int, bytes int64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, e := range ts.hot {
		bytes += int64(len(e.enc))
	}
	return len(ts.hot), bytes
}

// accumulateStats folds this store's spill-file traffic into st.
func (ts *tieredSlots) accumulateStats(st *ReplicaStoreStats) {
	entries, bytes := ts.residency()
	st.HotEntries += entries
	st.HotBytes += bytes
	ts.mu.Lock()
	f := ts.file
	ts.mu.Unlock()
	if f != nil {
		st.SpillReads += f.Reads()
		st.SpillWrites += f.Writes()
		st.SpillReadBytes += f.ReadBytes()
		st.SpillWriteBytes += f.WriteBytes()
		st.SpillRecords += f.Records()
	}
}

// close releases the spill file (removing it from disk).
func (ts *tieredSlots) close() error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.file == nil {
		return nil
	}
	err := ts.file.Close()
	ts.file = nil
	return err
}

// validStoreMode reports whether mode names a replica store mode.
func validStoreMode(mode string) bool {
	switch mode {
	case "", ReplicaStoreMemory, ReplicaStoreSpill:
		return true
	}
	return false
}

func storeModeError(mode string) error {
	return fmt.Errorf("fedzkt: unknown ReplicaStore %q (want %q or %q)", mode, ReplicaStoreMemory, ReplicaStoreSpill)
}
