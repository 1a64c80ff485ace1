package main

import (
	"math/rand"
	"testing"
)

func TestGrowingFlagsGrowingBacklog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flat := make([]float64, 40)
	grow := make([]float64, 40)
	for i := range flat {
		noise := rng.Float64()*20 - 10
		flat[i] = 30 + noise
		grow[i] = 30 + noise + 5*float64(i) // +195 messages over the window
	}
	if growing(flat, 50) {
		t.Error("flat noisy backlog flagged as growing")
	}
	if !growing(grow, 50) {
		t.Error("backlog growing by 195 messages not flagged at limit 50")
	}
	if growing(grow, 400) {
		t.Error("growth of 195 flagged at limit 400")
	}
	if growing([]float64{1}, 0) {
		t.Error("a single sample cannot grow")
	}
}

func TestHighestPassing(t *testing.T) {
	for n := 1; n <= 33; n++ {
		for capacity := -1; capacity < n; capacity++ {
			probes := 0
			got := highestPassing(n, func(k int) bool { probes++; return k <= capacity })
			if got != capacity {
				t.Fatalf("n=%d capacity=%d: got %d", n, capacity, got)
			}
			max := 0
			for 1<<max < n+1 {
				max++
			}
			if probes > max {
				t.Fatalf("n=%d: %d probes, want at most %d", n, probes, max)
			}
		}
	}
}

func TestLadderRates(t *testing.T) {
	l := ladder{base: 1000, ratio: 1.5, rungs: 3}
	for k, want := range []float64{1000, 1500, 2250} {
		if got := l.rate(k); got != want {
			t.Errorf("rung %d = %v, want %v", k, got, want)
		}
	}
}
