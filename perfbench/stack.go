package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/jms"
	"repro/internal/wire"
)

// matchBuffer is a matching subscription's client-side delivery queue
// length: deep enough that a receiver goroutine's scheduling gap seldom
// stalls the subscriber connection's read loop. Non-matching
// subscriptions should receive nothing and get a queue of one.
const matchBuffer = 1024

// stack is the assembled system under test: one broker per member behind
// wire.ServeWith on a loopback TCP listener, and the two generator
// connections.
type stack struct {
	w     *workload
	in    *inputs
	epoch time.Time

	brokers []*broker.Broker
	servers []*wire.Server
	meshes  []*cluster.WireMesh
	fwd     *timedForwarder // member 0's forwarder in a traced mesh run

	pub, sub *client.Client
	phases   phaseTable
	recvs    []*receiver
	recvWG   sync.WaitGroup
	probes   chan struct{}

	// outcomes[pub][seq] is the publish outcome of each message.
	outcomes [][]uint8
	// acked counts acked publishes; delivered counts copies delivered to
	// matching subscriptions.
	acked, delivered atomic.Uint64
}

// boot assembles the stack, installs the subscription population and
// returns once a probe message has reached every matching subscription.
func boot(w *workload, in *inputs, traced bool, epoch time.Time) (st *stack, err error) {
	// probes holds one signal per matching subscription, the number of
	// sends one probe makes; receive drops any beyond that (the delivery
	// check counts a duplicated probe).
	st = &stack{w: w, in: in, epoch: epoch, probes: make(chan struct{}, in.matched)}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	members := 1
	if w.mesh {
		members = 2
	}
	lns := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				_ = ln.Close() // already failing
			}
			return st, fmt.Errorf("listen: %w", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	for i, ln := range lns {
		b := broker.New(broker.Options{Engine: w.engine, WaitTiming: traced})
		st.brokers = append(st.brokers, b)
		var opts wire.ServeOptions
		if w.mesh {
			wm, err := cluster.NewWireMesh(cluster.WireMeshConfig{
				Kind: cluster.TopologySSR, Self: i, Addrs: addrs, Topics: []string{in.topic},
			})
			if err != nil {
				for _, l := range lns[i:] {
					_ = l.Close() // not served yet; already failing
				}
				return st, err
			}
			st.meshes = append(st.meshes, wm)
			opts.Forwarder = wm
			if traced && i == 0 {
				st.fwd = &timedForwarder{mesh: wm}
				opts.Forwarder = st.fwd
			}
		}
		st.servers = append(st.servers, wire.ServeWith(b, ln, opts))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st.pub, err = client.Dial(addrs[0]); err != nil {
		return st, err
	}
	if st.sub, err = client.Dial(addrs[members-1]); err != nil {
		return st, err
	}
	if err = st.pub.ConfigureTopic(ctx, in.topic); err != nil {
		return st, fmt.Errorf("configure topic: %w", err)
	}
	if w.mesh {
		if err = st.sub.ConfigureTopic(ctx, in.topic); err != nil {
			return st, fmt.Errorf("configure topic on member 1: %w", err)
		}
	}
	var matching []*receiver
	var chans []<-chan *jms.Message
	for _, s := range in.subs {
		buffer := 1
		if s.matches {
			buffer = matchBuffer
		}
		sub, err := st.sub.Subscribe(ctx, in.topic, s.spec, buffer)
		if err != nil {
			return st, fmt.Errorf("subscribe %q: %w", s.spec.Expr, err)
		}
		r := &receiver{matches: s.matches, phases: &st.phases}
		st.recvs = append(st.recvs, r)
		if s.matches {
			matching = append(matching, r)
			chans = append(chans, sub.Chan())
			continue
		}
		st.recvWG.Add(1)
		go st.receive([]*receiver{r}, []<-chan *jms.Message{sub.Chan()})
	}
	st.recvWG.Add(1)
	go st.receive(matching, chans)

	probe := in.newMessage()
	in.stamp(probe, phaseWarm, probePub, 0, time.Since(epoch))
	if err = st.pub.Publish(ctx, probe); err != nil {
		return st, fmt.Errorf("probe: %w", err)
	}
	for i := 0; i < in.matched; i++ {
		select {
		case <-st.probes:
		case <-ctx.Done():
			return st, errors.New("probe not delivered to every matching subscription")
		}
	}
	return st, nil
}

// receive drains the subscriptions' channels into their receivers until
// every channel is closed. One goroutine serves all matching subscriptions,
// as one subscriber application would: it takes whatever is queued on any
// of them and blocks only when all are empty, so a message's R copies cost
// one wake-up rather than R.
func (st *stack) receive(rs []*receiver, chans []<-chan *jms.Message) {
	defer st.recvWG.Done()
	cases := make([]reflect.SelectCase, len(chans))
	for i, ch := range chans {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
	}
	handle := func(r *receiver, m *jms.Message) {
		if r.observe(m.Body, time.Since(st.epoch)) {
			select {
			case st.probes <- struct{}{}:
			default:
			}
		} else if r.matches {
			st.delivered.Add(1)
		}
	}
	closeCase := func(i int) {
		chans[i] = nil
		cases[i].Chan = reflect.Value{}
	}
	for open := len(chans); open > 0; {
		got := false
		for i, ch := range chans {
			if ch == nil {
				continue
			}
			select {
			case m, ok := <-ch:
				if !ok {
					closeCase(i)
					open--
					continue
				}
				handle(rs[i], m)
				got = true
			default:
			}
		}
		if got || open == 0 {
			continue
		}
		i, v, ok := reflect.Select(cases)
		if !ok {
			closeCase(i)
			open--
			continue
		}
		handle(rs[i], v.Interface().(*jms.Message))
	}
}

// drain waits until every acked publish has been delivered to every
// matching subscription, or until timeout; the delivery check reports
// anything still missing.
func (st *stack) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	want := func() uint64 { return st.acked.Load() * uint64(st.in.matched) }
	for st.delivered.Load() < want() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// close tears the stack down; afterwards every receiver is quiescent.
func (st *stack) close() {
	for _, c := range []*client.Client{st.pub, st.sub} {
		if c != nil {
			_ = c.Close() // teardown; the check reads what was delivered
		}
	}
	st.recvWG.Wait()
	for _, s := range st.servers {
		_ = s.Close() // teardown
	}
	for _, m := range st.meshes {
		_ = m.Close() // teardown
	}
	for _, b := range st.brokers {
		_ = b.Close() // teardown
	}
}

// verdict checks the deliveries of a closed stack.
func (st *stack) verdict() verdict { return check(st.outcomes, st.recvs, 1) }

// timedForwarder delegates to a WireMesh and times each call, which is the
// publish's synchronous FORWARD to the peer.
type timedForwarder struct {
	mesh  *cluster.WireMesh
	spans hist
}

func (f *timedForwarder) ForwardPublish(m *jms.Message, raw []byte) (bool, error) {
	defer f.record(time.Now())
	return f.mesh.ForwardPublish(m, raw)
}

func (f *timedForwarder) ForwardBatch(msgs []*jms.Message, raw []byte) (bool, error) {
	defer f.record(time.Now())
	return f.mesh.ForwardBatch(msgs, raw)
}

func (f *timedForwarder) record(t0 time.Time) { f.spans.add(time.Since(t0)) }
