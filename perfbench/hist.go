package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// hist is a log-linear histogram of durations in ns, safe for concurrent
// adds: values below histExact have a bucket each, larger ones histSub
// buckets per power of two, so a reported quantile is within 1/histSub
// below the true one. Its size is fixed, so recording a delivery costs no
// memory however long a run lasts.
type hist struct {
	counts [histBuckets]atomic.Uint32
	n, sum atomic.Uint64
}

const (
	histExact   = 256
	histSub     = 128
	histBuckets = histExact + 24*histSub // covers every uint32
)

func bucketOf(v uint32) int {
	if v < histExact {
		return int(v)
	}
	e := bits.Len32(v) - 8 // v>>e lies in [histSub, 2·histSub)
	return histExact + (e-1)*histSub + int(v>>e) - histSub
}

// bucketLow returns the smallest value in bucket b.
func bucketLow(b int) uint32 {
	if b < histExact {
		return uint32(b)
	}
	e := (b-histExact)/histSub + 1
	return uint32((b-histExact)%histSub+histSub) << e
}

// add records one duration, saturating at the uint32 range (4.29 s).
func (h *hist) add(d time.Duration) {
	v := uint32(min(max(d, 0), time.Duration(^uint32(0))))
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(uint64(v))
}

// quantile returns the nearest-rank p-quantile, as the lower bound of its
// bucket, and the number of samples in higher buckets.
func (h *hist) quantile(p float64) (v uint32, beyond int) {
	n := h.n.Load()
	if n == 0 {
		return 0, 0
	}
	rank := uint64(p*float64(n) + 0.5)
	rank = min(max(rank, 1), n)
	var cum uint64
	for b := range h.counts {
		cum += uint64(h.counts[b].Load())
		if cum >= rank {
			return bucketLow(b), int(n - cum)
		}
	}
	return bucketLow(histBuckets - 1), 0
}

// latSummary summarizes a histogram in µs.
type latSummary struct {
	n                    int
	mean, p50, p99, p999 float64
	beyond99, beyond999  int // samples above p99 and p999
}

func (h *hist) summary() latSummary {
	s := latSummary{n: int(h.n.Load())}
	if s.n == 0 {
		return s
	}
	s.mean = float64(h.sum.Load()) / float64(s.n) / 1e3
	v, _ := h.quantile(0.5)
	s.p50 = float64(v) / 1e3
	v, s.beyond99 = h.quantile(0.99)
	s.p99 = float64(v) / 1e3
	v, s.beyond999 = h.quantile(0.999)
	s.p999 = float64(v) / 1e3
	return s
}
