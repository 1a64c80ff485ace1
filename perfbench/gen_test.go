package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// fingerprint serializes every generated input of a run: the population,
// the encoded messages and the schedules of the first phases.
func fingerprint(w *workload, seed int64) []byte {
	in := generate(w, seed)
	var b bytes.Buffer
	for _, s := range in.subs {
		fmt.Fprintf(&b, "%d %q %v\n", s.spec.Mode, s.spec.Expr, s.matches)
	}
	m := in.newMessage()
	for seq := uint64(0); seq < 8; seq++ {
		in.stamp(m, phaseFixed, 1, seq, time.Duration(seq))
		b.Write(wire.AppendMessage(nil, m))
	}
	for phase := uint8(phaseFixed); phase < phaseRung0+2; phase++ {
		for _, off := range schedule(seed, phase, 5000, 200*time.Millisecond) {
			b.Write(binary.BigEndian.AppendUint64(nil, uint64(off)))
		}
	}
	return b.Bytes()
}

func TestSeedReproducesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := fingerprint(w, 7), fingerprint(w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two generations", w.name)
		}
		if bytes.Equal(a, fingerprint(w, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
	}
}

func TestPopulationShape(t *testing.T) {
	for _, w := range workloads {
		in := generate(w, 3)
		matching, exprs := 0, map[string]int{}
		for _, s := range in.subs {
			if s.matches {
				matching++
				continue
			}
			exprs[s.spec.Expr]++
			if _, err := newFilter(s.spec); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		if matching != w.matching || in.matched != w.matching {
			t.Errorf("%s: %d matching subscriptions, want %d", w.name, matching, w.matching)
		}
		if len(exprs) != w.rules {
			t.Errorf("%s: %d distinct non-matching rules, want %d", w.name, len(exprs), w.rules)
		}
		for e, n := range exprs {
			if want := max(w.share, 1); n != want {
				t.Errorf("%s: rule %q shared by %d subscriptions, want %d", w.name, e, n, want)
			}
		}
	}
}

func TestScheduleIsPoisson(t *testing.T) {
	s := schedule(1, phaseFixed, 2000, 10*time.Second)
	if n := len(s); n < 19400 || n > 20600 {
		t.Errorf("%d arrivals in 10 s at 2000/s", n)
	}
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
}

func TestIdentityRoundTrip(t *testing.T) {
	in := generate(workloads[0], 1)
	m := in.newMessage()
	in.stamp(m, 9, 1, 1<<40, 12345*time.Microsecond)
	if len(m.Body) != bodySize {
		t.Fatalf("body is %d B, want %d", len(m.Body), bodySize)
	}
	phase, pub, seq, due, ok := identity(m.Body)
	if !ok || phase != 9 || pub != 1 || seq != 1<<40 || due != 12345*time.Microsecond {
		t.Errorf("identity = %d %d %d %v %v", phase, pub, seq, due, ok)
	}
	if _, _, _, _, ok := identity(m.Body[:10]); ok {
		t.Error("short body accepted")
	}
}
