package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/jms"
)

// Phase IDs carried in every message body. Messages sent before a phase's
// measured window carry phaseWarm and are checked but not timed.
const (
	phaseWarm  = 0
	phaseFixed = 1
	phaseSat   = 2
	phaseRung0 = 3 // ladder rung k sends phaseRung0+k
)

// senders is the number of sending goroutines, all on the one publisher
// connection. Each is its own publisher in the delivery check: its sends
// are sequential, so FIFO holds per sender.
const senders = 2

// backlogEvery is the backlog sampling interval during a ladder rung.
const backlogEvery = 25 * time.Millisecond

// A phase's measured window is cut into sub-windows of about subWindow,
// and at least minSubWindows of them. Latency and rate metrics are
// medians over sub-windows, so a host stall that spoils one sub-window
// does not move them.
const (
	subWindow     = time.Second
	minSubWindows = 5
)

// phaseResult is what one load phase measured.
type phaseResult struct {
	// sub summarizes the copies delivered in each sub-window, by due time.
	sub    []latSummary
	subLen time.Duration
	n      int           // copies delivered in the window
	sent   int           // publishes due in the window and acked
	cpu    time.Duration // process user+sys CPU from window start to drained
	// lag is how late a sender woke for a due message it slept for: the
	// generator's own lateness.
	lag hist
	// spans holds each Publish/PublishBatch call's duration (traced runs).
	spans   hist
	traced  bool
	unsent  int // due in an open loop but not sent by the stop
	pubErrs atomic.Int64
	backlog []float64 // due so far − delivered/R, every backlogEvery
}

// median returns the median of f over the sub-windows.
func (r *phaseResult) median(f func(latSummary) float64) float64 {
	if len(r.sub) == 0 {
		return 0
	}
	v := make([]float64, len(r.sub))
	for i, s := range r.sub {
		v[i] = f(s)
	}
	slices.Sort(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// beyond sums a per-sub-window count of samples beyond a quantile.
func (r *phaseResult) beyond(f func(latSummary) int) int {
	n := 0
	for _, s := range r.sub {
		n += f(s)
	}
	return n
}

// delivered returns the messages delivered per second — copies over R —
// as the median over sub-windows.
func (r *phaseResult) delivered(matched int) float64 {
	return r.median(func(s latSummary) float64 {
		return float64(s.n) / float64(matched) / r.subLen.Seconds()
	})
}

func (r *phaseResult) cpuPerMsg() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.cpu) / 1e3 / float64(r.sent)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sender is one sending goroutine's state for a phase.
type sender struct {
	st   *stack
	res  *phaseResult
	g    uint8
	msgs []*jms.Message
	sent int // window messages acked
}

// publish sends the sender's next len(msgs) messages, due at due, as one
// Publish (or PublishBatch) call and records their outcomes.
func (s *sender) publish(ctx context.Context, phase uint8, due time.Duration) {
	st := s.st
	out := st.outcomes[s.g]
	first := len(out)
	for i, m := range s.msgs {
		st.in.stamp(m, phase, s.g, uint64(first+i), due)
		out = append(out, pubFailed)
	}
	st.outcomes[s.g] = out
	t0 := time.Now()
	var err error
	if len(s.msgs) == 1 {
		err = st.pub.Publish(ctx, s.msgs[0])
	} else {
		err = st.pub.PublishBatch(ctx, s.msgs)
	}
	if s.res.traced {
		s.res.spans.add(time.Since(t0))
	}
	if err != nil {
		s.res.pubErrs.Add(1)
		return
	}
	for i := range s.msgs {
		out[first+i] = pubAcked
	}
	st.acked.Add(uint64(len(s.msgs)))
	if phase != phaseWarm {
		s.sent += len(s.msgs)
	}
}

func (st *stack) newSenders(res *phaseResult, batch int) []*sender {
	for len(st.outcomes) < senders {
		st.outcomes = append(st.outcomes, nil)
	}
	out := make([]*sender, senders)
	for g := range out {
		s := &sender{st: st, res: res, g: uint8(g), msgs: make([]*jms.Message, batch)}
		for i := range s.msgs {
			s.msgs[i] = st.in.newMessage()
		}
		out[g] = s
	}
	return out
}

// finish drains the stack after a phase and gathers its result.
func (st *stack) finish(res *phaseResult, ph *phaseHists, ss []*sender, cpu0 time.Duration) {
	st.drain(5 * time.Second)
	res.cpu = cpuTime() - cpu0
	res.subLen = ph.subLen
	for _, h := range ph.subs {
		s := h.summary()
		res.sub = append(res.sub, s)
		res.n += s.n
	}
	for _, s := range ss {
		res.sent += s.sent
	}
}

// openLoop offers an open-loop Poisson schedule at rate for warm+window.
// The schedule's arrivals are dealt to the senders in turn; each sender
// sleeps until its next arrival is due and publishes it, or publishes at
// once when it is already late. Latency runs from the due time, so a stall
// counts against every message queued behind it. With stop set, messages
// still unsent shortly after the schedule ends are abandoned (a ladder
// rung past capacity); otherwise every message is sent.
func (st *stack) openLoop(phase uint8, seed int64, rate float64, warm, window time.Duration, stop, traced bool) *phaseResult {
	sched := schedule(seed, phase, rate, warm+window)
	res := &phaseResult{traced: traced}
	ss := st.newSenders(res, 1)
	start := time.Now()
	base := start.Sub(st.epoch)
	ph := st.phases.begin(phase, base+warm, window)
	var stopped atomic.Bool
	var unsent atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), warm+window+30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g, s := range ss {
		wg.Add(1)
		go func(g int, s *sender) {
			defer wg.Done()
			for i := g; i < len(sched); i += len(ss) {
				off := sched[i]
				due := start.Add(off)
				if time.Until(due) > 0 {
					sleepUntil(due)
					if off >= warm {
						res.lag.add(time.Since(due))
					}
				}
				if stopped.Load() {
					unsent.Add(1)
					continue
				}
				p := phase
				if off < warm {
					p = phaseWarm
				}
				s.publish(ctx, p, base+off)
			}
		}(g, s)
	}

	time.Sleep(time.Until(start.Add(warm)))
	cpu0 := cpuTime()
	if stop {
		R := float64(st.in.matched)
		for t := start.Add(warm); time.Until(start.Add(warm+window)) > 0; t = t.Add(backlogEvery) {
			time.Sleep(time.Until(t))
			dueSoFar, _ := slices.BinarySearch(sched, time.Since(start))
			res.backlog = append(res.backlog, float64(dueSoFar)-float64(st.delivered.Load())/R)
		}
		time.Sleep(time.Until(start.Add(warm + window + 50*time.Millisecond)))
		stopped.Store(true)
	}
	wg.Wait()
	res.unsent = int(unsent.Load())
	st.finish(res, ph, ss, cpu0)
	return res
}

// sleepUntil sleeps until t in nanosleep, resuming after signals. The
// runtime's own timers round sub-millisecond sleeps up to its poller's
// 1 ms granularity whenever the process is otherwise idle, which would
// make the generator, not the broker, set the latency at low rates.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// closedLoop runs the senders saturated for warm+window: each sends its
// next publish (a batch of w.batch messages) as soon as the previous one
// is acked. Latency runs from the start of the publish call.
func (st *stack) closedLoop(phase uint8, warm, window time.Duration, traced bool) *phaseResult {
	res := &phaseResult{traced: traced}
	ss := st.newSenders(res, st.w.batch)
	start := time.Now()
	measureFrom := start.Add(warm)
	end := measureFrom.Add(window)
	ph := st.phases.begin(phase, measureFrom.Sub(st.epoch), window)
	ctx, cancel := context.WithTimeout(context.Background(), warm+window+30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				p := phase
				if now.Before(measureFrom) {
					p = phaseWarm
				}
				s.publish(ctx, p, now.Sub(st.epoch))
			}
		}(s)
	}
	time.Sleep(time.Until(measureFrom))
	cpu0 := cpuTime()
	wg.Wait()
	st.finish(res, ph, ss, cpu0)
	return res
}
