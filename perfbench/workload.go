package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/broker"
)

type filterKind int

const (
	filterAll      filterKind = iota // one wildcard subscription per match
	filterCorrID                     // exact correlation-ID filters
	filterSelector                   // application-property selectors
)

// ladder is a fixed geometric rate ladder: rung k offers base·ratio^k
// msgs/s, for k in [0, rungs).
type ladder struct {
	base, ratio float64
	rungs       int
}

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.ratio, float64(k)) }

// workload is one traffic mix. Every workload uses two generator
// connections: one publisher and one subscriber connection holding the
// whole subscription population.
type workload struct {
	name   string
	engine broker.Engine
	// mesh runs two brokers joined by an SSR WireMesh: the publisher
	// attaches to member 0 and the subscriber connection to member 1.
	mesh     bool
	filters  filterKind
	matching int // R: matching subscriptions
	rules    int // distinct non-matching rules
	share    int // subscriptions per non-matching selector rule
	// rate is the fixed open-loop Poisson rate in msgs/s; 0 makes the
	// workload a saturated closed loop.
	rate     float64
	p99Limit time.Duration
	ladder   ladder
	// batch is the PublishBatch size of the saturated closed loop.
	batch int
}

var workloads = []*workload{
	{
		name: "paper-corrid", engine: broker.EngineFaithful,
		filters: filterCorrID, matching: 10, rules: 200,
		rate: 4000, p99Limit: 50 * time.Millisecond,
		ladder: ladder{base: 2000, ratio: 1.12, rungs: 24},
		batch:  1,
	},
	{
		name: "selector-scan", engine: broker.EngineFast,
		filters: filterSelector, matching: 1, rules: 500, share: 4,
		rate: 4000, p99Limit: 50 * time.Millisecond,
		ladder: ladder{base: 2000, ratio: 1.12, rungs: 24},
		batch:  1,
	},
	{
		name: "batch-flood", engine: broker.EngineFast,
		filters: filterAll, matching: 1,
		batch: 16,
	},
	{
		name: "mesh-ssr", engine: broker.EngineFaithful, mesh: true,
		filters: filterCorrID, matching: 1,
		rate: 4000, p99Limit: 50 * time.Millisecond,
		ladder: ladder{base: 2000, ratio: 1.12, rungs: 24},
		batch:  1,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
