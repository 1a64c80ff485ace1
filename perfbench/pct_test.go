package main

import (
	"testing"
	"time"
)

func TestBuckets(t *testing.T) {
	prev := uint32(0)
	for b := 0; b < histBuckets; b++ {
		lo := bucketLow(b)
		if bucketOf(lo) != b {
			t.Fatalf("bucketOf(bucketLow(%d)=%d) = %d", b, lo, bucketOf(lo))
		}
		if b > 0 && (lo <= prev || lo-prev > prev/histSub+1) {
			t.Fatalf("bucket %d starts at %d after %d: not increasing within 1/%d", b, lo, prev, histSub)
		}
		prev = lo
	}
	if got := bucketOf(^uint32(0)); got != histBuckets-1 {
		t.Errorf("largest value in bucket %d, want %d", got, histBuckets-1)
	}
}

func TestQuantileBeyond(t *testing.T) {
	var h hist
	for v := 1; v <= 200; v++ {
		h.add(time.Duration(v))
	}
	for _, c := range []struct {
		p      float64
		v      uint32
		beyond int
	}{
		{0.5, 100, 100},
		{0.99, 198, 2},
		{1, 200, 0},
		{0, 1, 199},
	} {
		v, beyond := h.quantile(c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(%v) = %d, %d beyond; want %d, %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
}

func TestQuantileTiesCountOnlyLarger(t *testing.T) {
	// 990 samples of 1 and 10 of 2: p99 is 1, and exactly the ten 2s lie
	// beyond it; p999 is 2 with nothing beyond.
	var h hist
	for i := 0; i < 1000; i++ {
		if i < 990 {
			h.add(1)
		} else {
			h.add(2)
		}
	}
	if v, beyond := h.quantile(0.99); v != 1 || beyond != 10 {
		t.Errorf("p99 = %d, %d beyond; want 1, 10", v, beyond)
	}
	if v, beyond := h.quantile(0.999); v != 2 || beyond != 0 {
		t.Errorf("p999 = %d, %d beyond; want 2, 0", v, beyond)
	}
}

func TestSummary(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	s := h.summary()
	if s.n != 10000 || s.mean != 5000.5 {
		t.Errorf("n=%d mean=%v, want 10000 and 5000.5", s.n, s.mean)
	}
	for _, c := range []struct{ got, want float64 }{{s.p50, 5000}, {s.p99, 9900}, {s.p999, 9990}} {
		if c.got > c.want || c.got < c.want*(1-1.0/histSub) {
			t.Errorf("quantile %v, want within 1/%d below %v", c.got, histSub, c.want)
		}
	}
	// beyond counts exactly the samples in buckets above the quantile's.
	for _, c := range []struct {
		q      float64
		beyond int
	}{{s.p99, s.beyond99}, {s.p999, s.beyond999}} {
		qb, want := bucketOf(uint32(c.q*1e3)), 0
		for i := 1; i <= 10000; i++ {
			if bucketOf(uint32(i*1000)) > qb {
				want++
			}
		}
		if c.beyond != want {
			t.Errorf("beyond %v = %d, want %d", c.q, c.beyond, want)
		}
	}
	var empty hist
	if e := empty.summary(); e.n != 0 || e.p99 != 0 {
		t.Errorf("empty summary %+v", e)
	}
}
