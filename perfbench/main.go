// Command perfbench is the repository's benchmark. One process assembles
// the real stack — broker.New, wire.ServeWith on a loopback TCP listener,
// client connections — and drives one named workload with inputs made
// from --seed, then checks every delivery by message identity.
//
//	perfbench --workload paper-corrid --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload again with per-layer timing and prints the per-layer
// metrics instead. Human-readable lines come first; the last line of
// standard output is one JSON object. Traffic crosses the host's loopback
// interface, not a real link. The exit code is non-zero when the delivery
// check fails or the stack cannot be assembled.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"syscall"
	"time"
)

// A --trace 0 run assembles the stack at least minSetups and at most
// maxSetups times, stopping once setupBudget has been spent; setup_s is
// the median process CPU time of one set-up. Cheap set-ups repeat more,
// so their median is steadier. CPU time, not elapsed time: hypervisor
// steal stretches the elapsed time of a set-up's round trips by tens of
// percent from one period to the next, and work moved into set-up shows
// in its CPU time all the same.
const (
	minSetups   = 3
	maxSetups   = 41
	setupBudget = 1500 * time.Millisecond
)

// runLimit stops a run that overruns; a result is never printed then.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one entry of the result's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is added.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.print(name, v, unit, note)
}

// print prints a metric line without adding the metric to the result;
// README.md says why each such metric is left out of BENCHMARK.json.
func (r *report) print(name string, v float64, unit, note string) {
	fmt.Fprintf(r.out, "metric  %-28s %14.4f %-7s %s\n", name, v, unit, note)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 15, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *traced < 0 || *traced > 1) {
		err = errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "host    %s\n", hostFingerprint())
	fmt.Fprintf(stdout, "run     workload=%s seed=%d seconds=%d trace=%d (traffic over loopback TCP, not a real link)\n",
		w.name, *seed, *seconds, *traced)
	rep := &report{out: stdout, metrics: map[string]metric{}}
	d := time.Duration(*seconds) * time.Second
	steal0, total0 := cpuTicks()
	var v verdict
	if *traced == 0 {
		v, err = endToEnd(w, *seed, d, rep)
	} else {
		v, err = perLayer(w, *seed, d, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	steal1, total1 := cpuTicks()
	fmt.Fprintf(stdout, "host    steal_pct=%.1f (CPU time the hypervisor withheld during the run)\n",
		ratio(float64(steal1-steal0), float64(total1-total0))*100)
	fmt.Fprintf(stdout, "check   %s\n", v)
	res := result{Correct: v.failures() == 0, Attempted: v.expected, Failed: v.failures(), Metrics: rep.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// phases splits a run of d into its measured windows.
type phases struct {
	warm, fixed, rungWarm, rung, sat time.Duration
}

func plan(w *workload, d time.Duration) phases {
	if w.rate == 0 {
		return phases{warm: 500 * time.Millisecond, sat: d}
	}
	probes := time.Duration(math.Ceil(math.Log2(float64(w.ladder.rungs + 1))))
	return phases{
		warm:     500 * time.Millisecond,
		fixed:    d * 25 / 100,
		rungWarm: 200 * time.Millisecond,
		rung:     d * 40 / 100 / probes,
		sat:      d * 35 / 100,
	}
}

// endToEnd runs the untraced workload: set-up timing, the fixed-rate
// phase, the rate ladder and the saturated closed loop.
func endToEnd(w *workload, seed int64, d time.Duration, rep *report) (verdict, error) {
	epoch := time.Now()
	in := generate(w, seed)
	var v verdict
	var setups, elapsed []float64
	var st *stack
	for t := time.Now(); ; {
		t0, cpu0 := time.Now(), cpuTime()
		s, err := boot(w, in, false, epoch)
		if err != nil {
			return v, err
		}
		setups = append(setups, (cpuTime() - cpu0).Seconds())
		elapsed = append(elapsed, time.Since(t0).Seconds())
		if n := len(setups); n >= maxSetups || (n >= minSetups && time.Since(t) > setupBudget) {
			st = s
			break
		}
		s.close()
		v = v.add(s.verdict())
	}
	p := plan(w, d)
	var lat, sat *phaseResult
	var sustained, memPeak float64
	var sustainedNote string
	if w.rate > 0 {
		lat = st.openLoop(phaseFixed, seed, w.rate, p.warm, p.fixed, false, false)
		// The ladder's overloaded rungs queue messages in every layer;
		// the peak is taken before them so it does not depend on how far
		// past capacity the search happened to probe.
		memPeak = peakRSSMiB()
		sustained, sustainedNote = st.ladder(seed, p, rep.out)
		sat = st.closedLoop(phaseSat, p.rungWarm, p.sat, false)
	} else {
		sat = st.closedLoop(phaseSat, p.warm, p.sat, false)
		lat = sat
		sustained = sat.delivered(in.matched)
		sustainedNote = fmt.Sprintf("closed loop, no ladder, n=%d copies", sat.n)
		memPeak = peakRSSMiB()
	}
	st.close()
	v = v.add(st.verdict())

	slices.Sort(setups)
	slices.Sort(elapsed)
	rep.add("setup_s", setups[len(setups)/2], "s", fmt.Sprintf("process CPU time, median of n=%d set-ups", len(setups)))
	rep.print("setup_elapsed_s", elapsed[len(elapsed)/2], "s", fmt.Sprintf("wall-clock time, median of n=%d set-ups", len(elapsed)))
	n := fmt.Sprintf("median of %d sub-windows, n=%d copies", len(lat.sub), lat.n)
	rep.print("lat_mean_us", lat.median(func(s latSummary) float64 { return s.mean }), "us", n)
	rep.print("lat_p50_us", lat.median(func(s latSummary) float64 { return s.p50 }), "us", n)
	rep.print("lat_p99_us", lat.median(func(s latSummary) float64 { return s.p99 }), "us",
		fmt.Sprintf("%s, %d beyond", n, lat.beyond(func(s latSummary) int { return s.beyond99 })))
	rep.print("lat_p999_us", lat.median(func(s latSummary) float64 { return s.p999 }), "us",
		fmt.Sprintf("%s, %d beyond", n, lat.beyond(func(s latSummary) int { return s.beyond999 })))
	rep.print("sustained_msgs_s", sustained, "msgs/s", sustainedNote)
	rep.add("throughput_msgs_s", sat.delivered(in.matched), "msgs/s",
		fmt.Sprintf("saturated closed loop, batch %d, %d B bodies, n=%d copies", w.batch, bodySize, sat.n))
	rep.add("cpu_us_per_msg", sat.cpuPerMsg(), "us", fmt.Sprintf("saturated closed loop, n=%d published", sat.sent))
	rep.add("mem_peak_mb", memPeak, "MiB", "process peak RSS through set-up and the fixed-rate (or saturated) phase")
	rep.print("error_ratio", v.ratio(), "ratio", fmt.Sprintf("n=%d deliveries owed; breakdown on the check line", v.expected))
	return v, nil
}

// ladder finds the highest rung of w's rate ladder that meets the p99
// limit with no growing backlog and no failed publish, and returns the
// delivered message rate measured on it with a note naming the rung.
func (st *stack) ladder(seed int64, p phases, out io.Writer) (float64, string) {
	w := st.w
	rungs := map[int]*phaseResult{}
	best := highestPassing(w.ladder.rungs, func(k int) bool {
		rate := w.ladder.rate(k)
		res := st.openLoop(phaseRung0+uint8(k), seed, rate, p.rungWarm, p.rung, true, false)
		limit := float64(w.p99Limit) / 1e3
		grew := growing(res.backlog, math.Max(rate*w.p99Limit.Seconds(), 4))
		p99 := res.median(func(s latSummary) float64 { return s.p99 })
		ok := res.n > 0 && p99 <= limit && !grew && res.unsent == 0 && res.pubErrs.Load() == 0
		rungs[k] = res
		fmt.Fprintf(out, "rung    k=%-2d offered=%8.1f delivered=%8.1f p99=%9.1fus limit=%.0fus growing=%v unsent=%d errors=%d pass=%v\n",
			k, rate, res.delivered(st.in.matched), p99, limit, grew, res.unsent, res.pubErrs.Load(), ok)
		return ok
	})
	if best < 0 {
		return 0, "no rung passed"
	}
	return rungs[best].delivered(st.in.matched), fmt.Sprintf("rung k=%d of %d (offered %.0f msgs/s), n=%d copies",
		best, w.ladder.rungs, w.ladder.rate(best), rungs[best].n)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
