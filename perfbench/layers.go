package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/mg1"
	"repro/internal/topic"
	"repro/internal/wire"
)

// gcPauses is the runtime/metrics histogram of stop-the-world GC pauses.
const gcPauses = "/sched/pauses/total/gc:seconds"

// layerSnap is every layer's public counters at one instant.
type layerSnap struct {
	wire   wire.WireStats
	broker []broker.Stats
	tel    broker.TopicTelemetry // delivering member
	mesh   []cluster.WireMeshStats
	mem    runtime.MemStats
	gc     *metrics.Float64Histogram
}

func (st *stack) snapshot() layerSnap {
	var s layerSnap
	for _, srv := range st.servers {
		ws := srv.WireStats()
		s.wire.FramesIn += ws.FramesIn
		s.wire.ReadCalls += ws.ReadCalls
		s.wire.FramesOut += ws.FramesOut
		s.wire.BytesOut += ws.BytesOut
		s.wire.WriteCalls += ws.WriteCalls
		s.wire.WriteNanos += ws.WriteNanos
	}
	for _, b := range st.brokers {
		s.broker = append(s.broker, b.Stats())
	}
	s.tel = st.brokers[len(st.brokers)-1].Telemetry()[st.in.topic]
	for _, m := range st.meshes {
		s.mesh = append(s.mesh, m.Stats())
	}
	runtime.ReadMemStats(&s.mem)
	sample := []metrics.Sample{{Name: gcPauses}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		s.gc = sample[0].Value.Float64Histogram()
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer reports the per-layer metrics of a traced run. A bare stack
// runs the saturated closed loop; a traced stack (broker wait timing,
// timed publish and forward calls, layer counters read before and after)
// runs the workload's main phase — the fixed-rate open loop, or the
// closed loop of a saturated workload — and then the same closed loop,
// whose CPU per message against the bare one is the tracing overhead.
// Encode, decode and match costs are replayed on the workload's inputs.
func perLayer(w *workload, seed int64, d time.Duration, rep *report) (verdict, error) {
	epoch := time.Now()
	in := generate(w, seed)
	warm := plan(w, d).warm
	satWindow, mainWindow := d*3/10, d*4/10

	st, err := boot(w, in, false, epoch)
	if err != nil {
		return verdict{}, err
	}
	bare := st.closedLoop(phaseSat, warm, satWindow, false)
	st.close()
	v := st.verdict()

	if st, err = boot(w, in, true, epoch); err != nil {
		return v, err
	}
	before := st.snapshot()
	var res *phaseResult
	if w.rate > 0 {
		res = st.openLoop(phaseFixed, seed, w.rate, warm, mainWindow, false, true)
	} else {
		res = st.closedLoop(phaseSat, warm, mainWindow, true)
	}
	after := st.snapshot()
	var fw latSummary
	if st.fwd != nil {
		fw = st.fwd.spans.summary()
	}
	traced := st.closedLoop(phaseSat, warm, satWindow, true)
	servers := st.brokers[len(st.brokers)-1].EffectiveServers()
	st.close()
	v = v.add(st.verdict())

	rc, err := replay(w, in)
	if err != nil {
		return v, err
	}

	last := len(after.broker) - 1
	bs, bs0 := after.broker[last], before.broker[last]
	recv := float64(bs.Received - bs0.Received)
	copies := float64(bs.Dispatched - bs0.Dispatched)

	lag := res.lag.summary()
	rep.add("loadgen.lag_p99_us", lag.p99, "us", fmt.Sprintf("sender wake-up − due time, n=%d", lag.n))
	rep.add("loadgen.unacked_delivered", float64(v.unackedDelivered), "count", "deliveries of publishes in flight at a stop")
	spans := res.spans.summary()
	rep.add("client.publish_p50_us", spans.p50, "us", fmt.Sprintf("Publish/PublishBatch call to ack, n=%d", spans.n))
	rep.add("client.publish_p99_us", spans.p99, "us", fmt.Sprintf("n=%d beyond=%d", spans.n, spans.beyond99))
	rep.add("client.publish_errors", float64(res.pubErrs.Load()), "count", "")

	ws, ws0 := after.wire, before.wire
	framesOut := float64(ws.FramesOut - ws0.FramesOut)
	writeNs := float64(ws.WriteNanos - ws0.WriteNanos)
	rep.add("wire.frames_per_write", ratio(framesOut, float64(ws.WriteCalls-ws0.WriteCalls)), "frames", "WireStats, all servers")
	rep.add("wire.write_ns_per_frame", ratio(writeNs, framesOut), "ns", "")
	rep.add("wire.frames_per_read", ratio(float64(ws.FramesIn-ws0.FramesIn), float64(ws.ReadCalls-ws0.ReadCalls)), "frames", "")
	rep.add("wire.bytes_out_per_delivery", ratio(float64(ws.BytesOut-ws0.BytesOut), copies), "B", "")
	rep.add("wire.encode_ns_per_msg", rc.encodeNs, "ns", "replay: "+rc.encodeHow)
	rep.add("wire.decode_ns_per_msg", rc.decodeNs, "ns", "replay: "+rc.decodeHow)

	rep.add("broker.filter_evals_per_msg", ratio(float64(bs.FilterEvals-bs0.FilterEvals), recv), "evals", fmt.Sprintf("Broker.Stats, n=%.0f received", recv))
	rep.add("broker.replication", ratio(copies, recv), "copies", fmt.Sprintf("workload R=%d", in.matched))
	tel := after.tel.Sub(before.tel)
	waitMean := tel.WaitMoments.Mean() * 1e6
	rep.add("broker.wait_mean_us", waitMean, "us", fmt.Sprintf("Broker.Telemetry, n=%d", tel.WaitMoments.N))
	rep.add("broker.wait_p99_us", float64(tel.Wait.Quantile(0.99))/1e3, "us", "log2-bucket histogram estimate")
	rep.add("broker.service_mean_us", tel.ServiceMoments.Mean()*1e6, "us", "")
	var dropped uint64
	for i := range after.broker {
		a, b := after.broker[i], before.broker[i]
		dropped += (a.Dropped - b.Dropped) + (a.SlowDropped - b.SlowDropped) + (a.SlowDisconnects - b.SlowDisconnects)
	}
	rep.add("broker.dropped", float64(dropped), "count", "")

	rep.add("match.ns_per_msg", rc.matchNs, "ns", "replay: "+rc.matchHow)
	rep.add("match.ns_per_filter", ratio(rc.matchNs, rc.evals), "ns", fmt.Sprintf("%.0f evaluations per message", rc.evals))
	rep.add("match.groups", rc.groups, "count", "")

	rep.add("cluster.forward_p50_us", fw.p50, "us", fmt.Sprintf("timed WireMesh.ForwardPublish, n=%d", fw.n))
	rep.add("cluster.forward_p99_us", fw.p99, "us", fmt.Sprintf("n=%d beyond=%d", fw.n, fw.beyond99))
	var fwdErrs, reconnects uint64
	for i := range after.mesh {
		fwdErrs += after.mesh[i].ForwardErrors - before.mesh[i].ForwardErrors
		reconnects += after.mesh[i].Reconnects - before.mesh[i].Reconnects
	}
	rep.add("cluster.forward_errors", float64(fwdErrs), "count", "WireMesh.Stats")
	rep.add("cluster.reconnects", float64(reconnects), "count", "")

	rep.add("runtime.allocs_per_msg", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), recv), "allocs", "whole process, generator included")
	rep.add("runtime.alloc_bytes_per_msg", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), recv), "B", "")
	rep.add("runtime.gc_pause_p99_us", gcPauseP99(before.gc, after.gc)*1e6, "us", "runtime/metrics "+gcPauses)

	pred := predictWait(w, tel, servers)
	rep.add("mg1.ew_pred_us", pred*1e6, "us", fmt.Sprintf("Eq. 4 at λ=%.0f, k=%d servers (0: saturated, no offered rate)", w.rate, servers))
	rep.add("mg1.ew_ratio", ratio(waitMean, pred*1e6), "ratio", "broker.wait_mean_us / mg1.ew_pred_us")

	tracedCPU := traced.cpuPerMsg()
	rep.add("trace.overhead_pct", ratio(tracedCPU-bare.cpuPerMsg(), bare.cpuPerMsg())*100, "%",
		fmt.Sprintf("saturated cpu_us_per_msg traced %.3f vs bare %.3f", tracedCPU, bare.cpuPerMsg()))
	layerNs := rc.decodeNs + rc.matchNs + float64(in.matched)*rc.encodeNs + ratio(writeNs, recv)
	rep.add("trace.coverage", ratio(layerNs/1e3, tracedCPU), "ratio", "(decode + match + R·encode + egress write) per message / cpu_us_per_msg")
	return v, nil
}

// predictWait is Eq. 4 at the workload's offered rate from the measured
// service-time moments: Pollaczek–Khinchine on the single-server faithful
// engine, M/G/k on the sharded fast engine, as the drift monitor does. It
// returns 0 for a saturated workload or an unstable queue.
func predictWait(w *workload, tel broker.TopicTelemetry, servers int) float64 {
	if w.rate == 0 {
		return 0
	}
	m1, m2, m3 := tel.ServiceMoments.Raw()
	b := mg1.ServiceMoments{M1: m1, M2: m2, M3: m3}
	if w.engine == broker.EngineFast {
		q, err := mg1.NewMGkQueue(w.rate, servers, b)
		if err != nil {
			return 0
		}
		return q.MeanWait()
	}
	q, err := mg1.NewQueue(w.rate, b)
	if err != nil {
		return 0
	}
	return q.MeanWait()
}

// gcPauseP99 returns the p99 GC pause (s) between two histogram readings,
// as the upper bound of the bucket holding the rank; 0 without pauses.
func gcPauseP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range d {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= rank {
			return b.Buckets[i+1]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// replayCosts are layer costs timed by calling each layer's public
// functions on the workload's own messages and subscription population.
type replayCosts struct {
	encodeNs, decodeNs, matchNs float64
	encodeHow, decodeHow        string
	matchHow                    string
	evals, groups               float64
}

// matchSink keeps the replayed scan's result live.
var matchSink int

// replayMinTime is how long each replayed call is repeated.
const replayMinTime = 150 * time.Millisecond

// perCall times f(i) for i = 0, 1, ... until replayMinTime has passed and
// returns the mean ns per call.
func perCall(f func(i int)) float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < replayMinTime {
		for j := 0; j < 64; j++ {
			f(n)
			n++
		}
	}
	return float64(time.Since(t0)) / float64(n)
}

func replay(w *workload, in *inputs) (replayCosts, error) {
	var rc replayCosts
	msgs := make([]*jms.Message, 256)
	for i := range msgs {
		msgs[i] = in.newMessage()
		in.stamp(msgs[i], phaseFixed, 0, uint64(i), time.Duration(i))
	}
	arena := wire.NewMessageArena()
	var buf []byte
	if w.batch > 1 {
		nb := len(msgs) / w.batch
		payloads := make([][]byte, nb)
		for i := range payloads {
			payloads[i] = wire.AppendBatch(nil, msgs[i*w.batch:(i+1)*w.batch])
		}
		rc.encodeHow = fmt.Sprintf("wire.AppendBatch of %d, per message", w.batch)
		rc.encodeNs = perCall(func(i int) {
			b := i % nb
			buf = wire.AppendBatch(buf[:0], msgs[b*w.batch:(b+1)*w.batch])
		}) / float64(w.batch)
		var dst []*jms.Message
		var derr error
		rc.decodeHow = "MessageArena.AppendBatchMessages, per message"
		rc.decodeNs = perCall(func(i int) {
			if dst, derr = arena.AppendBatchMessages(dst[:0], payloads[i%nb]); derr != nil {
				panic(derr) // payloads were encoded just above
			}
		}) / float64(w.batch)
	} else {
		payloads := make([][]byte, len(msgs))
		for i, m := range msgs {
			payloads[i] = wire.AppendMessage(nil, m)
		}
		rc.encodeHow = "wire.AppendDelivery"
		rc.encodeNs = perCall(func(i int) {
			buf = wire.AppendDelivery(buf[:0], 1, 0, msgs[i%len(msgs)])
		})
		rc.decodeHow = "MessageArena.DecodeMessageArena"
		rc.decodeNs = perCall(func(i int) {
			if _, err := arena.DecodeMessageArena(payloads[i%len(payloads)]); err != nil {
				panic(err) // payloads were encoded just above
			}
		})
	}

	reg := topic.NewRegistry()
	t, err := reg.Configure(in.topic)
	if err != nil {
		return rc, err
	}
	for _, s := range in.subs {
		f, err := newFilter(s.spec)
		if err != nil {
			return rc, err
		}
		if _, err := reg.Subscribe(in.topic, f, nil); err != nil {
			return rc, err
		}
	}
	var matched, evals int
	if w.engine == broker.EngineFast {
		idx, _ := t.Index()
		var dst []*topic.Subscription
		rc.matchHow = "topic.FilterIndex.Match"
		rc.groups = float64(idx.NumGroups())
		dst, evals = idx.Match(msgs[0], dst[:0])
		matched = len(dst)
		rc.matchNs = perCall(func(i int) { dst, _ = idx.Match(msgs[i%len(msgs)], dst[:0]) })
	} else {
		subs, _ := t.Snapshot()
		rc.matchHow = "Filter.Matches over the topic snapshot"
		rc.groups = float64(len(subs))
		scan := func(m *jms.Message) int {
			n := 0
			for _, s := range subs {
				if s.Filter.Matches(m) {
					n++
				}
			}
			return n
		}
		matched, evals = scan(msgs[0]), len(subs)
		rc.matchNs = perCall(func(i int) { matchSink += scan(msgs[i%len(msgs)]) })
	}
	if matched != in.matched {
		return rc, fmt.Errorf("replayed match found %d subscriptions, want R=%d", matched, in.matched)
	}
	rc.evals = float64(evals)
	return rc, nil
}

// newFilter builds the broker filter of a wire subscription spec, as the
// wire server does.
func newFilter(spec wire.FilterSpec) (filter.Filter, error) {
	switch spec.Mode {
	case wire.FilterCorrelationID:
		return filter.NewCorrelationID(spec.Expr)
	case wire.FilterSelector:
		return filter.NewProperty(spec.Expr)
	}
	return filter.All{}, nil
}
