package fedzkt

import "testing"

// benchCohortCheckout measures a checkout/release cycle of an 8-teacher
// window over a 64-member cohort under the given store. The window
// rotates, so under the spill store (hot set 16) most lookups are cold —
// the spill read + decode path is what the benchmark prices against the
// memory store's always-hot decode path.
func benchCohortCheckout(b *testing.B, store string) {
	b.Helper()
	cfg := tinyConfig()
	cfg.TeachersPerIter = 8
	cfg.ReplicaStore = store
	if store == ReplicaStoreSpill {
		cfg.HotSet = 16
		cfg.SpillDir = b.TempDir()
	}
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := srv.RegisterSized("mlp", nil, 1+i%7); err != nil {
			b.Fatal(err)
		}
	}
	ids := make([]int, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ids {
			ids[j] = (i*len(ids) + j) % n
		}
		leases := srv.cohorts.checkout(ids, false, false)
		if err := srv.cohorts.release(leases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCohortCheckoutMemory(b *testing.B) { benchCohortCheckout(b, ReplicaStoreMemory) }
func BenchmarkCohortCheckoutSpill(b *testing.B)  { benchCohortCheckout(b, ReplicaStoreSpill) }

// TestCheckoutAllocsCeiling pins the per-checkout allocation budget on
// the spill store's hot path (every member resident): a regression that
// starts copying or re-encoding buffers per checkout shows up here long
// before it shows up in wall time.
func TestCheckoutAllocsCeiling(t *testing.T) {
	cfg := tinyConfig()
	cfg.TeachersPerIter = 8
	cfg.ReplicaStore = ReplicaStoreSpill
	cfg.HotSet = 16
	cfg.SpillDir = t.TempDir()
	srv, err := NewServer(cfg, tinyShape(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 16; i++ {
		if _, err := srv.RegisterSized("mlp", nil, 1+i); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Warm the hot set and the pool.
	leases := srv.cohorts.checkout(ids, false, false)
	if err := srv.cohorts.release(leases); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		l := srv.cohorts.checkout(ids, false, false)
		_ = srv.cohorts.release(l)
	})
	// Steady state measures ~19 objects per member (lease, decode views,
	// shard bookkeeping); the ceiling is ~30/member so only structural
	// regressions — per-checkout buffer copies, re-encodes — trip it.
	const ceiling = 240
	if allocs > ceiling {
		t.Fatalf("hot checkout/release of 8 members allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
