package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a named percentile for
// it to be reported: with fewer, the number is one outlier's latency.
const minBeyond = 10

// median returns the middle of v (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank q-quantile of v (0 < q < 1), and
// whether the sample supports it: at least minBeyond samples must lie
// beyond the returned rank. An unsupported percentile reads 0, false.
func percentile(v []float64, q float64) (float64, bool) {
	n := len(v)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank-1], true
}

// pctl is percentile for metric tables: an unsupported percentile is
// reported as 0, which the README documents as "not measured".
func pctl(v []float64, q float64) float64 {
	p, _ := percentile(v, q)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage is a reading of the process's cumulative resource counters;
// two readings bracket an operation.
type usage struct {
	at      time.Time
	cpu     float64
	alloc   uint64
	mallocs uint64
}

// since is what the process used between prev and u: CPU milliseconds,
// kilobytes allocated and mallocs.
func (u usage) since(prev usage) (cpuMs, allocKB, mallocs float64) {
	return 1000 * (u.cpu - prev.cpu), float64(u.alloc-prev.alloc) / 1024, float64(u.mallocs - prev.mallocs)
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{at: time.Now(), cpu: cpuSeconds(), alloc: m.TotalAlloc, mallocs: m.Mallocs}
}

// retainedHeapMB is the live heap after two collections, while the
// caller still references the system's state. keep pins that state
// until after the reading.
func retainedHeapMB(keep ...any) float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

// refCalibMs is what the calibration kernel takes on the reference
// machine. Gated times are printed in that machine's milliseconds:
// measured time × refCalibMs / the kernel's time around the operation.
const refCalibMs = 15.0

// calibBytes is how much fresh memory one kernel run takes from the OS.
const calibBytes = 32 << 20

// calibKernel is a fixed piece of work that costs what the program's
// own work costs most on a shared runner: getting fresh memory from the
// operating system. It maps calibBytes of anonymous memory, touches
// every page and unmaps it. On such a runner the program's wall and CPU
// times swing by tens of percent over minutes — measured here: +52 % on
// the batch pipeline within three minutes — and a pure ALU loop barely
// moves (±3 %), because the swing is in page-fault and zeroing cost
// under the host's memory pressure, which an allocation-heavy Go
// program pays constantly. This kernel swings with it (the ratio of
// pipeline time to kernel time held within ±3 % through the same three
// minutes), uses none of the program's code, and does not depend on the
// Go heap's state. Changing it re-bases every gated time: don't.
func calibKernel() error {
	mem, err := syscall.Mmap(-1, 0, calibBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("calibration kernel: %w", err)
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1
	}
	if err := syscall.Munmap(mem); err != nil {
		return fmt.Errorf("calibration kernel: %w", err)
	}
	return nil
}

// window is the calibration record of a measured stretch of a workload:
// the kernel samples interleaved with its operations, and when each was
// taken.
type window struct {
	at       []time.Time // when each sample ended
	kernelMs []float64
	err      error // the first kernel failure; the window is then unusable
}

// calibRuns is how many back-to-back kernel runs one calibration takes
// the fastest of: a run that overlaps a garbage collection or another
// goroutine's page faults reads several times too long, and
// interference only ever adds.
const calibRuns = 3

// calibrate takes one calibration sample. Workloads call it before and
// after every operation (or, where operations are short, about once a
// second), so that each operation has a sample taken under the machine
// conditions it met, and every few seconds through their set-up. A nil
// window takes none, so that set-up helpers can be called without one.
func (w *window) calibrate() {
	if w == nil || w.err != nil {
		return
	}
	best := 0.0
	for i := 0; i < calibRuns; i++ {
		t0 := time.Now()
		if w.err = calibKernel(); w.err != nil {
			return
		}
		if d := ms(time.Since(t0)); i == 0 || d < best {
			best = d
		}
	}
	w.at = append(w.at, time.Now())
	w.kernelMs = append(w.kernelMs, best)
}

// calibMs is the kernel's median time in this window, or an error when
// the kernel could not run.
func (w *window) calibMs() (float64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(w.kernelMs) == 0 {
		return 0, fmt.Errorf("calibration kernel: no run in this window")
	}
	return median(w.kernelMs), nil
}

// around is the kernel's time under the conditions an operation that ran
// from start to end met: the mean of the last sample taken before it and
// the first taken after it, or the one of the two that exists. The
// machine's speed moves by ten percent and more from one second to the
// next, so an operation is compared with its neighbours in time and not
// with the window's median. A window without samples returns 0; calibMs
// reports that as an error.
func (w *window) around(start, end time.Time) float64 {
	after := sort.Search(len(w.at), func(i int) bool { return !w.at[i].Before(end) })
	before := sort.Search(len(w.at), func(i int) bool { return w.at[i].After(start) }) - 1
	switch {
	case before >= 0 && after < len(w.at):
		return (w.kernelMs[before] + w.kernelMs[after]) / 2
	case before >= 0:
		return w.kernelMs[before]
	case after < len(w.at):
		return w.kernelMs[after]
	}
	return 0
}

// calibrated is a series of per-operation readings in milliseconds,
// each with the kernel's time around its operation.
type calibrated struct{ ms, kernelMs []float64 }

func (c *calibrated) add(v, kernelMs float64) {
	c.ms = append(c.ms, v)
	c.kernelMs = append(c.kernelMs, kernelMs)
}

// ref is the series' median in reference-machine milliseconds: the
// median over operations of reading × refCalibMs / kernel time around
// the operation.
func (c *calibrated) ref() float64 {
	ratios := make([]float64, len(c.ms))
	for i, v := range c.ms {
		ratios[i] = v / c.kernelMs[i]
	}
	return refCalibMs * median(ratios)
}
