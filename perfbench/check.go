package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// receiver is one subscription's view of what it was delivered. Only its
// own goroutine writes it; the final check locks mu.
type receiver struct {
	matches bool
	// phases routes each delivery's latency to its phase's histograms.
	phases *phaseTable

	mu sync.Mutex
	// got[pub][seq] counts the copies of (pub, seq) delivered here.
	got [][]uint8
	// next[pub] is one past the highest seq seen from pub.
	next      []uint64
	reordered int
	misrouted int
	probes    int
}

// observe records one delivery made at now (since the run's epoch) and
// reports whether it was the probe.
func (r *receiver) observe(body []byte, now time.Duration) (probe bool) {
	phase, pub, seq, due, ok := identity(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case !ok || !r.matches:
		r.misrouted++
		return false
	case pub == probePub:
		r.probes++
		return true
	}
	for len(r.got) <= int(pub) {
		r.got = append(r.got, nil)
		r.next = append(r.next, 0)
	}
	g := r.got[pub]
	for uint64(len(g)) <= seq {
		g = append(g, make([]uint8, len(g)+1024)...)
	}
	r.got[pub] = g
	if g[seq] == 0 && seq+1 < r.next[pub] {
		r.reordered++
	}
	if g[seq] < 255 {
		g[seq]++
	}
	if seq+1 > r.next[pub] {
		r.next[pub] = seq + 1
	}
	if h := r.phases.histFor(phase, due); h != nil {
		h.add(now - due)
	}
	return false
}

// phaseTable holds the latency histograms of the phase each message ID
// names, one per sub-window of the phase's measured window.
type phaseTable [256]atomic.Pointer[phaseHists]

type phaseHists struct {
	from, subLen time.Duration // since the run's epoch
	subs         []*hist
}

// begin installs phase's histograms: its measured window of length window
// starts at from and is cut into sub-windows of about subWindow, at least
// minSubWindows of them.
func (t *phaseTable) begin(phase uint8, from, window time.Duration) *phaseHists {
	n := max(int(window/subWindow), minSubWindows)
	ph := &phaseHists{from: from, subLen: window / time.Duration(n), subs: make([]*hist, n)}
	for i := range ph.subs {
		ph.subs[i] = new(hist)
	}
	t[phase].Store(ph)
	return ph
}

// histFor returns the histogram of the sub-window a message of phase due
// at due belongs to, or nil for an untimed one.
func (t *phaseTable) histFor(phase uint8, due time.Duration) *hist {
	if phase == phaseWarm {
		return nil
	}
	ph := t[phase].Load()
	if ph == nil || due < ph.from {
		return nil
	}
	if i := int((due - ph.from) / ph.subLen); i < len(ph.subs) {
		return ph.subs[i]
	}
	return nil
}

// Publish outcomes, per (publisher, seq).
const (
	pubUnsent = iota
	pubFailed // the publish returned an error (or never returned an ack)
	pubAcked
)

// verdict is the delivery check's result.
type verdict struct {
	expected      int // deliveries owed: acked publishes × matching subscriptions
	missing       int
	duplicate     int
	misrouted     int
	reordered     int
	publishErrors int
	// unackedDelivered counts deliveries of publishes that were not acked:
	// in flight at a stop or failed after the broker accepted them. They
	// are not failures.
	unackedDelivered int
	probeErrors      int
}

func (v verdict) add(o verdict) verdict {
	return verdict{
		expected: v.expected + o.expected, missing: v.missing + o.missing,
		duplicate: v.duplicate + o.duplicate, misrouted: v.misrouted + o.misrouted,
		reordered: v.reordered + o.reordered, publishErrors: v.publishErrors + o.publishErrors,
		unackedDelivered: v.unackedDelivered + o.unackedDelivered, probeErrors: v.probeErrors + o.probeErrors,
	}
}

func (v verdict) failures() int {
	return v.missing + v.duplicate + v.misrouted + v.reordered + v.publishErrors + v.probeErrors
}

func (v verdict) ratio() float64 {
	if v.expected == 0 {
		return 0
	}
	return float64(v.failures()) / float64(v.expected)
}

func (v verdict) String() string {
	return fmt.Sprintf("error_ratio=%.6g (%d failures / %d expected deliveries): missing=%d duplicate=%d misrouted=%d reordered=%d publish_errors=%d probe_errors=%d; unacked_delivered=%d (not failures)",
		v.ratio(), v.failures(), v.expected, v.missing, v.duplicate, v.misrouted, v.reordered,
		v.publishErrors, v.probeErrors, v.unackedDelivered)
}

// check compares what each receiver got with the publish outcomes: each
// acked publish must reach every matching subscription exactly once, no
// copy may reach a non-matching one, and each subscription must see every
// publisher's messages in sequence order. probes is the number of probe
// messages each matching subscription should have seen. Receivers must be
// quiescent.
func check(outcomes [][]uint8, recvs []*receiver, probes int) verdict {
	var v verdict
	for _, o := range outcomes {
		for _, s := range o {
			if s == pubFailed {
				v.publishErrors++
			}
		}
	}
	for _, r := range recvs {
		r.mu.Lock()
		v.misrouted += r.misrouted
		v.reordered += r.reordered
		if r.matches && r.probes != probes {
			v.probeErrors++
		}
		if r.matches {
			for pub, o := range outcomes {
				var got []uint8
				if pub < len(r.got) {
					got = r.got[pub]
				}
				for seq, s := range o {
					n := 0
					if seq < len(got) {
						n = int(got[seq])
					}
					switch {
					case s == pubAcked:
						v.expected++
						if n == 0 {
							v.missing++
						} else if n > 1 {
							v.duplicate += n - 1
						}
					case n > 0:
						v.unackedDelivered++
						v.duplicate += n - 1
					}
				}
				// Copies of seqs that were never published are misrouted.
				for seq := len(o); seq < len(got); seq++ {
					v.misrouted += int(got[seq])
				}
			}
			for pub := len(outcomes); pub < len(r.got); pub++ {
				for _, n := range r.got[pub] {
					v.misrouted += int(n)
				}
			}
		}
		r.mu.Unlock()
	}
	return v
}
