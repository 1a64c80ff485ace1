package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/jms"
	"repro/internal/wire"
)

// This file makes every input the broker sees from the --seed argument:
// the subscription population, the message properties and bodies, and the
// open-loop arrival schedules. The same seed gives byte-identical inputs.

// bodySize is the fixed message body size of every workload.
const bodySize = 128

// Body layout: the first bodyHeader bytes identify the message; the rest is
// seeded filler.
const (
	offPhase   = 0  // u8: phase the message was sent in (see phase IDs)
	offPub     = 1  // u8: publisher (sending goroutine) index
	offSeq     = 2  // u64: per-publisher sequence number, from 0
	offDue     = 10 // i64: due time in ns since the run's epoch
	bodyHeader = 18
)

// probePub marks the probe message that ends each set-up.
const probePub = 0xff

// subSpec is one subscription of the population and whether it matches
// the workload's messages.
type subSpec struct {
	spec    wire.FilterSpec
	matches bool
}

// inputs are the generated inputs of one run.
type inputs struct {
	topic   string
	subs    []subSpec
	corrID  string  // correlation ID of every message ("" for none)
	sym     string  // "sym" property of every message ("" for none)
	px      []int32 // "px" property values, cycled per message
	filler  []byte  // body bytes after the header
	matched int     // R: subscriptions every message must reach
}

// generate builds the inputs of w from seed.
func generate(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{topic: "bench", filler: make([]byte, bodySize-bodyHeader)}
	rng.Read(in.filler)
	used := map[string]bool{}
	word := func(prefix string) string {
		for {
			s := prefix + strconv.FormatUint(rng.Uint64()>>20, 36)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	switch w.filters {
	case filterAll:
		for i := 0; i < w.matching; i++ {
			in.subs = append(in.subs, subSpec{wire.FilterSpec{Mode: wire.FilterNone}, true})
		}
	case filterCorrID:
		in.corrID = word("c")
		for i := 0; i < w.matching; i++ {
			in.subs = append(in.subs, subSpec{wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: in.corrID}, true})
		}
		for i := 0; i < w.rules; i++ {
			in.subs = append(in.subs, subSpec{wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: word("c")}, false})
		}
	case filterSelector:
		in.sym = word("s")
		for i := 0; i < w.matching; i++ {
			in.subs = append(in.subs, subSpec{wire.FilterSpec{Mode: wire.FilterSelector, Expr: "sym = '" + in.sym + "'"}, true})
		}
		for i := 0; i < w.rules; i++ {
			lo := rng.Intn(900)
			expr := fmt.Sprintf("px BETWEEN %d AND %d AND sym = '%s'", lo, lo+100, word("s"))
			for k := 0; k < w.share; k++ {
				in.subs = append(in.subs, subSpec{wire.FilterSpec{Mode: wire.FilterSelector, Expr: expr}, false})
			}
		}
		in.px = make([]int32, 1024)
		for i := range in.px {
			in.px[i] = int32(rng.Intn(1000))
		}
	}
	rng.Shuffle(len(in.subs), func(i, j int) { in.subs[i], in.subs[j] = in.subs[j], in.subs[i] })
	in.matched = w.matching
	return in
}

// newMessage returns a message carrying the workload's routing fields;
// stamp fills in its identity before each send.
func (in *inputs) newMessage() *jms.Message {
	m := jms.NewMessage(in.topic)
	if in.corrID != "" {
		_ = m.SetCorrelationID(in.corrID) // generated IDs are short and valid
	}
	if in.sym != "" {
		_ = m.SetStringProperty("sym", in.sym) // fixed valid name
	}
	m.Body = make([]byte, bodySize)
	copy(m.Body[bodyHeader:], in.filler)
	return m
}

// stamp writes a message's identity into its body and clears the trace ID
// so the client stamps a fresh one, letting one message value be reused
// for every send of a publisher.
func (in *inputs) stamp(m *jms.Message, phase uint8, pub uint8, seq uint64, due time.Duration) {
	b := m.Body
	b[offPhase] = phase
	b[offPub] = pub
	binary.BigEndian.PutUint64(b[offSeq:], seq)
	binary.BigEndian.PutUint64(b[offDue:], uint64(due))
	m.Header.TraceID = 0
	if in.px != nil {
		_ = m.SetInt32Property("px", in.px[seq%uint64(len(in.px))]) // fixed valid name
	}
}

// identity reads back what stamp wrote.
func identity(body []byte) (phase, pub uint8, seq uint64, due time.Duration, ok bool) {
	if len(body) != bodySize {
		return 0, 0, 0, 0, false
	}
	return body[offPhase], body[offPub], binary.BigEndian.Uint64(body[offSeq:]),
		time.Duration(binary.BigEndian.Uint64(body[offDue:])), true
}

// schedule returns the due offsets of an open-loop Poisson arrival process
// at rate msgs/s over d, drawn from seed and the phase so every phase has
// its own reproducible schedule.
func schedule(seed int64, phase uint8, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(phase)))
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		off := time.Duration(at * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}
