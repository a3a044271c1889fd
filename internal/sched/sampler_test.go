package sched

import (
	"fmt"
	"sort"
	"testing"

	"github.com/fedzkt/fedzkt/internal/tensor"
)

// checkSubset verifies the Sampler contract: sorted, duplicate-free,
// in-range, non-empty, and of the expected size.
func checkSubset(t *testing.T, active []int, n, wantLen int) {
	t.Helper()
	if len(active) != wantLen {
		t.Fatalf("sampled %d devices, want %d (active=%v)", len(active), wantLen, active)
	}
	if !sort.IntsAreSorted(active) {
		t.Fatalf("active %v not sorted", active)
	}
	seen := map[int]bool{}
	for _, id := range active {
		if id < 0 || id >= n {
			t.Fatalf("device id %d outside [0,%d)", id, n)
		}
		if seen[id] {
			t.Fatalf("duplicate device %d in %v", id, active)
		}
		seen[id] = true
	}
}

func TestUniformKTable(t *testing.T) {
	cases := []struct {
		name    string
		k, n    int
		wantLen int
	}{
		{"k smaller than n", 3, 10, 3},
		{"k equals n", 10, 10, 10},
		{"k larger than n clamps", 25, 10, 10},
		{"single device", 1, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewUniformK(c.k)
			if err != nil {
				t.Fatal(err)
			}
			checkSubset(t, s.Sample(c.n, tensor.NewRand(5)), c.n, c.wantLen)
		})
	}
	if _, err := NewUniformK(0); err == nil {
		t.Fatal("NewUniformK(0) accepted")
	}
	if _, err := NewUniformK(-3); err == nil {
		t.Fatal("NewUniformK(-3) accepted")
	}
}

func TestFractionTable(t *testing.T) {
	cases := []struct {
		name    string
		p       float64
		n       int
		wantLen int
	}{
		{"full participation", 1, 8, 8},
		{"half", 0.5, 8, 4},
		{"rounds to nearest", 0.4, 9, 4},
		{"tiny fraction keeps one", 0.001, 50, 1},
		{"zero keeps one", 0, 5, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewFraction(c.p)
			if err != nil {
				t.Fatal(err)
			}
			checkSubset(t, s.Sample(c.n, tensor.NewRand(9)), c.n, c.wantLen)
		})
	}
	for _, bad := range []float64{-0.1, 1.5} {
		if _, err := NewFraction(bad); err == nil {
			t.Fatalf("NewFraction(%v) accepted", bad)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("sampling an empty population did not panic")
			}
		}()
		Fraction{P: 1}.Sample(0, tensor.NewRand(9))
	}()
}

func TestWeightedByDataTable(t *testing.T) {
	cases := []struct {
		name    string
		weights []int
		k       int
		wantLen int
	}{
		{"basic", []int{5, 1, 3, 7}, 2, 2},
		{"k clamps to n", []int{2, 2}, 6, 2},
		{"all zero weights fall back to uniform", []int{0, 0, 0}, 2, 2},
		{"zero-weight tail only drawn last", []int{4, 0, 4, 0}, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewWeightedByData(c.weights, c.k)
			if err != nil {
				t.Fatal(err)
			}
			checkSubset(t, s.Sample(len(c.weights), tensor.NewRand(11)), len(c.weights), c.wantLen)
		})
	}
	if _, err := NewWeightedByData(nil, 2); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewWeightedByData([]int{1, -1}, 1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewWeightedByData([]int{1, 2}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestWeightedByDataPrefersHeavyDevices(t *testing.T) {
	// Device 3 holds ~90% of the data; over many rounds it must be picked
	// far more often than the light devices.
	s, err := NewWeightedByData([]int{1, 1, 1, 27}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRand(123)
	counts := make([]int, 4)
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		for _, id := range s.Sample(4, rng) {
			counts[id]++
		}
	}
	heavy := float64(counts[3]) / rounds
	if heavy < 0.82 || heavy > 0.97 {
		t.Fatalf("heavy device picked %.3f of rounds, want ≈0.9 (counts=%v)", heavy, counts)
	}
}

func TestWeightedZeroWeightOnlyAfterPositive(t *testing.T) {
	// With k equal to the number of positive-weight devices, zero-weight
	// devices must never appear.
	s, err := NewWeightedByData([]int{3, 0, 5, 0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRand(77)
	for i := 0; i < 200; i++ {
		for _, id := range s.Sample(5, rng) {
			if id == 1 || id == 3 {
				t.Fatalf("zero-weight device %d sampled while positive-weight devices remained", id)
			}
		}
	}
}

func TestSamplersDeterministicForEqualSeeds(t *testing.T) {
	samplers := []Sampler{
		UniformK{K: 4},
		Fraction{P: 0.5},
		WeightedByData{K: 4, Weights: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for _, s := range samplers {
		t.Run(s.Name(), func(t *testing.T) {
			a := fmt.Sprint(s.Sample(10, tensor.NewRand(31)))
			b := fmt.Sprint(s.Sample(10, tensor.NewRand(31)))
			if a != b {
				t.Fatalf("same seed, different samples: %s vs %s", a, b)
			}
		})
	}
}
