package main

import (
	"testing"
	"time"

	"repro/internal/jms"
)

// deliver feeds r the message (pub, seq) as the subscription would see it.
func deliver(r *receiver, in *inputs, m *jms.Message, pub uint8, seq uint64) {
	in.stamp(m, phaseFixed, pub, seq, time.Millisecond)
	r.observe(m.Body, 2*time.Millisecond)
}

func TestCheckCatchesInjectedFaults(t *testing.T) {
	in := generate(&workload{filters: filterCorrID, matching: 2, rules: 1}, 1)
	m := in.newMessage()
	acked := func(n int) []uint8 {
		o := make([]uint8, n)
		for i := range o {
			o[i] = pubAcked
		}
		return o
	}
	var phases phaseTable
	fresh := func() (a, b, off *receiver) {
		a, b, off = &receiver{matches: true, phases: &phases}, &receiver{matches: true, phases: &phases}, &receiver{phases: &phases}
		for _, r := range []*receiver{a, b} {
			r.probes = 1
		}
		return
	}
	clean := func(r *receiver, seqs ...uint64) {
		for _, s := range seqs {
			deliver(r, in, m, 0, s)
		}
	}

	a, b, off := fresh()
	clean(a, 0, 1, 2, 3)
	clean(b, 0, 1, 2, 3)
	if v := check([][]uint8{acked(4)}, []*receiver{a, b, off}, 1); v.failures() != 0 || v.expected != 8 {
		t.Fatalf("clean run: %v", v)
	}

	cases := []struct {
		name   string
		inject func(a, b, off *receiver)
		want   func(v verdict) bool
	}{
		{"loss", func(a, b, off *receiver) { clean(a, 0, 1, 3); clean(b, 0, 1, 2, 3) },
			func(v verdict) bool { return v.missing == 1 && v.failures() == 1 }},
		{"duplication", func(a, b, off *receiver) { clean(a, 0, 1, 2, 2, 3); clean(b, 0, 1, 2, 3) },
			func(v verdict) bool { return v.duplicate == 1 && v.failures() == 1 }},
		{"reordering", func(a, b, off *receiver) { clean(a, 0, 2, 1, 3); clean(b, 0, 1, 2, 3) },
			func(v verdict) bool { return v.reordered == 1 && v.failures() == 1 }},
		{"misrouting", func(a, b, off *receiver) { clean(a, 0, 1, 2, 3); clean(b, 0, 1, 2, 3); clean(off, 2) },
			func(v verdict) bool { return v.misrouted == 1 && v.failures() == 1 }},
		{"phantom", func(a, b, off *receiver) { clean(a, 0, 1, 2, 3, 9); clean(b, 0, 1, 2, 3) },
			func(v verdict) bool { return v.misrouted == 1 && v.failures() == 1 }},
	}
	for _, c := range cases {
		a, b, off := fresh()
		c.inject(a, b, off)
		if v := check([][]uint8{acked(4)}, []*receiver{a, b, off}, 1); !c.want(v) {
			t.Errorf("%s: %v", c.name, v)
		}
	}

	// A publish that failed counts as a failure; one that never returned
	// but was delivered anyway counts as unacked, not as a failure.
	a, b, off = fresh()
	clean(a, 0, 1, 2)
	clean(b, 0, 1, 2)
	outcomes := [][]uint8{{pubAcked, pubAcked, pubFailed}}
	if v := check(outcomes, []*receiver{a, b, off}, 1); v.publishErrors != 1 || v.unackedDelivered != 2 || v.missing != 0 {
		t.Errorf("failed publish: %v", v)
	}
	outcomes = [][]uint8{{pubAcked, pubAcked, pubUnsent}}
	if v := check(outcomes, []*receiver{a, b, off}, 1); v.failures() != 0 || v.unackedDelivered != 2 {
		t.Errorf("in-flight publish: %v", v)
	}

	// A matching subscription that missed its probe is a failure.
	a, b, off = fresh()
	b.probes = 0
	if v := check(nil, []*receiver{a, b, off}, 1); v.probeErrors != 1 {
		t.Errorf("missed probe: %v", v)
	}
}

func TestObserveLatencyPerPhase(t *testing.T) {
	in := generate(&workload{filters: filterAll, matching: 1}, 1)
	m := in.newMessage()
	var phases phaseTable
	ph := phases.begin(phaseFixed, time.Second, 5*time.Second)
	r := &receiver{matches: true, phases: &phases}
	deliverAt := func(phase uint8, seq uint64, due time.Duration) {
		in.stamp(m, phase, 0, seq, due)
		r.observe(m.Body, due+2*time.Millisecond)
	}
	deliverAt(phaseWarm, 0, 1500*time.Millisecond) // warm-up: not timed
	deliverAt(phaseFixed, 1, 500*time.Millisecond) // before the window
	deliverAt(phaseFixed, 2, 1500*time.Millisecond)
	deliverAt(phaseFixed, 3, 5900*time.Millisecond)
	deliverAt(phaseFixed, 4, 6*time.Second)       // after the window
	deliverAt(phaseSat, 5, 1500*time.Millisecond) // phase not begun
	if len(ph.subs) != 5 {
		t.Fatalf("%d sub-windows, want 5", len(ph.subs))
	}
	for i, h := range ph.subs {
		want := 0
		if i == 0 || i == 4 {
			want = 1
		}
		if s := h.summary(); s.n != want || (want == 1 && s.p50 != float64(bucketLow(bucketOf(2e6)))/1e3) {
			t.Errorf("sub-window %d: %+v, want %d sample(s) of 2 ms", i, s, want)
		}
	}
	in.stamp(m, probePub, probePub, 0, 0)
	if !r.observe(m.Body, 0) || r.probes != 1 {
		t.Error("probe not recognised")
	}
}
