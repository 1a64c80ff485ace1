package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostFingerprint describes the machine a result was measured on, so
// results from different hosts can be normalised by refLoopMs.
func hostFingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close() // read-only
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s ref_loop_ms=%.3f",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), refLoopMs())
}

var refSink uint64

// refLoopMs times a fixed CPU-bound loop (xorshift over 2^25 steps), best
// of three, in milliseconds.
func refLoopMs() float64 {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 1<<25; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}

// cpuTicks returns the machine's stolen and total CPU ticks from
// /proc/stat, or zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil || i >= 8 { // guest time is already in user time
			break
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
