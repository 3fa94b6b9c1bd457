package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on is a virtual machine shared with other
// tenants, and its speed drifts by up to 1.8x over minutes (a fixed Go
// loop took between 0.9 and 1.6 ms of CPU time in runs ten minutes apart).
// CPU-time clocks remove stolen time but not a slower core. Every run
// therefore times a fixed probe after each of its rounds and scales the
// times measured in that round by probeRef over the probe's time, and its
// set-up times by probeRef over the median probe: they read as if measured
// on a host where the probe takes probeRef, about this one at its median.
const probeRef = 1500 * time.Microsecond

type probeNode struct {
	next *probeNode
	v    int
}

var (
	probeFns = []func(int) int{
		func(x int) int { return x*31 + 7 },
		func(x int) int { return x ^ x>>3 },
		func(x int) int { return x + x<<2 },
		func(x int) int { return x - 11 },
	}
	probeSink any
)

// probe runs a fixed mix of indirect calls, small allocations, map updates
// and slice growth — the kinds of work the closure executor and the
// compiler do — and returns its CPU time on the calling thread.
func probe() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	m := make(map[int]int, 256)
	var list *probeNode
	var buf []int
	x := 88172645
	for i := 0; i < 60000; i++ {
		x = probeFns[x&3](x) & 0xffffff
		m[x&1023] += i
		if x&7 == 0 {
			list = &probeNode{next: list, v: x}
		}
		if buf = append(buf, x); len(buf) == 512 {
			buf = buf[:0]
		}
	}
	probeSink = [3]any{m, list, buf}
	return threadCPU() - t0
}

// hostSpeed collects a run's probe times.
type hostSpeed struct{ samples []float64 }

// scale probes the host and returns the factor that turns a time measured
// just before into one on the reference host.
func (h *hostSpeed) scale() float64 {
	d := probe()
	h.samples = append(h.samples, float64(d))
	return float64(probeRef) / float64(d)
}

// runScale is the factor for the run as a whole: probeRef over the median
// probe. Set-up times use it, because a probe right after a set-up lands
// in the collection that set-up's garbage started and pays for it.
func (h *hostSpeed) runScale() float64 {
	return float64(probeRef) / median(h.samples)
}

// scaleAll multiplies the durations in ns by k.
func scaleAll(ns []int64, k float64) {
	for i := range ns {
		ns[i] = int64(float64(ns[i]) * k)
	}
}
