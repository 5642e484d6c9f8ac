package bloom

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.01); err == nil {
		t.Error("zero capacity accepted")
	}
	for _, p := range []float64{0, 1, -0.5, 2} {
		if _, err := New(100, p); err == nil {
			t.Errorf("rate %v accepted", p)
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := New(10000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	keys := make([][]byte, 10000)
	for i := range keys {
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k[:8], rng.Uint64())
		binary.BigEndian.PutUint64(k[8:], rng.Uint64())
		keys[i] = k
		f.Add(k)
	}
	for i, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	if f.Count() != 10000 {
		t.Errorf("Count = %d", f.Count())
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n, target = 50000, 0.01
	f, err := New(n, target)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		f.AddUint64Pair(rng.Uint64(), rng.Uint64())
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		// Fresh randoms; collision with inserted keys is negligible.
		if f.ContainsUint64Pair(rng.Uint64(), rng.Uint64()) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > target*3 {
		t.Errorf("false positive rate %v, target %v", rate, target)
	}
}

func TestFillRatioReasonable(t *testing.T) {
	f, err := New(1000, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if f.FillRatio() != 0 {
		t.Errorf("empty filter fill = %v", f.FillRatio())
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		f.AddUint64Pair(rng.Uint64(), rng.Uint64())
	}
	r := f.FillRatio()
	// At design capacity, fill is about 50%.
	if r < 0.3 || r > 0.7 {
		t.Errorf("fill ratio %v far from 0.5", r)
	}
}

func TestUint64PairMatchesBytes(t *testing.T) {
	f, err := New(100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	f.AddUint64Pair(0x0102030405060708, 0x090a0b0c0d0e0f10)
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if !f.Contains(key) {
		t.Error("byte form of pair key not found")
	}
}

func BenchmarkAdd(b *testing.B) {
	f, err := New(uint64(b.N)+1, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddUint64Pair(uint64(i), uint64(i)*2654435761)
	}
}

func BenchmarkContains(b *testing.B) {
	f, err := New(1<<20, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<20; i++ {
		f.AddUint64Pair(uint64(i), uint64(i)*2654435761)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ContainsUint64Pair(uint64(i), uint64(i))
	}
}

func TestSeededDeterminism(t *testing.T) {
	build := func(seed uint64) *Filter {
		f, err := NewSeeded(1000, 0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			f.AddUint64Pair(uint64(i), uint64(i)*2654435761)
		}
		return f
	}
	a, b := build(7), build(7)
	for i := 0; i < 2000; i++ {
		if a.ContainsUint64Pair(uint64(i), uint64(i)) != b.ContainsUint64Pair(uint64(i), uint64(i)) {
			t.Fatalf("same-seed filters disagree on key %d", i)
		}
	}
	if !slices.Equal(a.bits, b.bits) {
		t.Error("same-seed filters set different bits")
	}
	c := build(8)
	if slices.Equal(a.bits, c.bits) {
		t.Error("different seeds produced identical filters")
	}
}
