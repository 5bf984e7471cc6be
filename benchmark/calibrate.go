package main

import (
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in is a two-vCPU guest on a shared
// host, and the host disturbs a run in two ways.
//
// It takes the vCPUs away (steal, and other processes in the guest): wall
// time passes and nothing runs. /proc/stat showed 5 % of the guest's
// uptime stolen, in bursts, none of it in quiet hours. The process's CPU
// clock does not count that time (the guest kernel is built with
// CONFIG_PARAVIRT_TIME_ACCOUNTING), so the benchmark runs on one thread
// (GOMAXPROCS 1, one closed-loop client) and times everything on
// CLOCK_PROCESS_CPUTIME_ID: an op's latency is the CPU time the process
// spent between the call and its return, which on one undisturbed vCPU is
// its wall time. Four busy-looping processes beside a run stretched its
// wall time 2.2 times and moved no reported number by more than 3 %.
//
// And it slows the instructions down, on the CPU clock too: a busy
// sibling hyperthread costs compute-bound code 10–40 %, a neighbour that
// saturates the memory system costs scans and appends up to a factor of
// two or three, for seconds or for an hour. No run length the driver
// allows averages that out, so each run measures the machine it got: a
// fixed kernel with the shape of the engine's own scans — stream 4 MB of
// group keys, update four floating-point accumulators per key in a
// 10,000-group table; plain Go, none of the engine's code — runs on the
// client's goroutine between ops, one pass per 50 ms, timed on the same
// clock, and every time the run reports is multiplied by (reference pass
// time / mean pass time)^0.85.
//
// Reported times are therefore CPU-seconds of the reference machine. A
// change to the engine moves them exactly as it moves time on a quiet
// machine; the host's moods move them much less. The correction is not
// exact, because no two pieces of code lose the same share to the same
// neighbour. Of eleven kernels tried (a logarithm-and-division chain,
// integer mixing, cache-resident sums, pointer chases, streams, map
// lookups, floating-point chains, and pairs of them fitted per workload)
// this one tracked all five workloads best in both kinds of phase: over
// ten runs per workload in a busy hour the standard deviation of the
// logarithm of time per query fell from 0.08–0.22 to 0.02–0.08, where the
// compute-bound chain left 0.05–0.11. The unscaled values go to standard
// error.

// processCPU reads CLOCK_PROCESS_CPUTIME_ID: the CPU time of all the
// process's threads, to the nanosecond (getrusage splits the same total
// into user and system by tick sampling).
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// calibExponent: the kernel is a little more memory-bound than the
// workloads, which follow it to this power — the value that left the
// least spread over two sets of ten runs per workload, one in a busy hour
// (the kernel's pass time between 2.5 and 5.9 ms) and one in a quiet one.
const calibExponent = 0.85

const (
	calibKeys   = 1 << 20               // keys per pass: 4 MB, twice a core's L2
	calibGroups = 10_000                // the workloads' group count
	calibEvery  = 50 * time.Millisecond // one pass per calibEvery of ops
)

// calibration accumulates the CPU time of single passes of the kernel.
type calibration struct {
	keys   []int32
	groups []float64 // count, sum, sum of squares, min per group
	passes []float64 // seconds
}

// newCalibration builds the kernel's keys and runs one untimed pass.
func newCalibration() *calibration {
	c := &calibration{keys: make([]int32, calibKeys), groups: make([]float64, 4*calibGroups)}
	x := uint64(88172645463325252)
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = int32(x % calibGroups)
	}
	for o := 3; o < len(c.groups); o += 4 {
		c.groups[o] = math.Inf(1)
	}
	c.pass()
	return c
}

// pass is one pass of the kernel.
func (c *calibration) pass() {
	g := c.groups
	for i, k := range c.keys {
		v := float64(i&255) + 1.5
		o := int(k) * 4
		g[o]++
		g[o+1] += v
		g[o+2] += v * v
		if v < g[o+3] {
			g[o+3] = v
		}
	}
}

// run times `passes` passes on the calling goroutine and returns the CPU
// time they took together.
func (c *calibration) run(passes int) time.Duration {
	var sum time.Duration
	for p := 0; p < passes; p++ {
		t0 := processCPU()
		c.pass()
		d := processCPU() - t0
		c.passes = append(c.passes, d.Seconds())
		sum += d
	}
	return sum
}

// passSeconds is the mean pass: like a run's ops, it takes in every burst
// of the host's that fell into the run.
func (c *calibration) passSeconds() float64 {
	return mean(c.passes)
}

// calibSpeed is the factor a measured time is multiplied by: how fast the
// machine ran the kernel relative to the reference, to the power the
// workloads follow it with (1 when there is no reference or no pass).
func calibSpeed(refPassSeconds, passSeconds float64) float64 {
	if refPassSeconds <= 0 || passSeconds <= 0 {
		return 1
	}
	return math.Pow(refPassSeconds/passSeconds, calibExponent)
}
