package main

// growing reports whether a backlog sampled at equal intervals over a
// window grew by more than limit messages: the least-squares slope of the
// samples, carried over the whole window, is compared with limit. A
// sustainable rate leaves the backlog fluctuating around rate·latency; an
// overloaded one grows it by (offered − served)·t.
func growing(samples []float64, limit float64) bool {
	n := len(samples)
	if n < 2 {
		return false
	}
	var sx, sy, sxx, sxy float64
	for i, y := range samples {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	slope := (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
	return slope*float64(n-1) > limit
}

// highestPassing binary-searches the rungs [0, n) of a ladder for the
// highest one at which pass holds, assuming pass holds on every rung below
// a passing one. It returns -1 when rung 0 fails and calls pass at most
// ceil(log2(n+1)) times.
func highestPassing(n int, pass func(k int) bool) int {
	lo, hi := -1, n
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
