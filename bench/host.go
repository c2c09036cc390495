package main

import (
	"math"
	"slices"
	"time"
)

// hostProbe measures how fast the host runs a fixed calibration loop of the
// benchmark's own, so that timings can be reported at a reference host
// speed. The host is shared: other tenants' load moves every timing by up
// to a third from one minute to the next, more than any estimator over a
// single run removes, and the same slow spells slow this loop too
// (bench/README.md, "Host speed"). No change to the repository's code can
// move the loop, so dividing a timing by the loop's slowdown removes the
// host's share and keeps the code's.
//
// A piece is an ALU-bound xorshift chain followed by read-modify-writes at
// pseudo-random places of an 8 MiB table, each about a quarter millisecond
// on an idle host: together they tracked both the engine's cache-resident
// stepping and the daemon's request path better than either alone.
type hostProbe struct {
	table   []uint64
	times   []float64 // one sample's pieces, reused
	fast    fastest   // per piece, seconds
	typical samples   // per sample: its median piece, seconds
	sink    uint64
}

const (
	probePieces   = 16
	probeXorshift = 100_000
	probeRMW      = 20_000
	probeTable    = 1 << 20 // entries: 8 MiB
	// probeRefSec is the reference host's time for one piece: a round
	// figure near the fastest piece of a lightly loaded 2-vCPU Xeon
	// (Sapphire Rapids) VM. It only sets the scale the timings are
	// reported in.
	probeRefSec = 500e-6
	// probeSamples is the capacity kept for per-sample medians, above the
	// reps or rounds a 60 s run makes, so sample does not allocate.
	probeSamples = 1024
)

func newHostProbe() *hostProbe {
	return &hostProbe{
		table:   make([]uint64, probeTable),
		times:   make([]float64, probePieces),
		typical: make(samples, 0, probeSamples),
	}
}

// sample runs probePieces pieces and folds their times in. It allocates
// nothing, so it neither triggers a collection nor shows in a workload's
// allocation counts; callers run it right after a forced collection, with
// no timed work in flight.
func (h *hostProbe) sample() {
	table := h.table
	for p := range h.times {
		start := time.Now()
		x, sum := uint64(0x9E3779B97F4A7C15)+uint64(p), uint64(0)
		for range probeXorshift {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		for range probeRMW {
			x = x*6364136223846793005 + 1442695040888963407
			i := (x >> 20) & (probeTable - 1)
			table[i] += x
			sum += table[(i*7)&(probeTable-1)]
		}
		h.sink += x + sum
		h.times[p] = time.Since(start).Seconds()
	}
	h.fast.add(h.times)
	slices.Sort(h.times)
	h.typical.add((h.times[probePieces/2-1] + h.times[probePieces/2]) / 2)
}

// slowdown is how many times longer than on the reference host the loop's
// fastest pieces took: the divisor for timings that are themselves the
// fastest of many repetitions. NaN before the first sample.
func (h *hostProbe) slowdown() float64 {
	if len(h.fast) == 0 {
		return math.NaN()
	}
	return h.fast.sum() / (probePieces * probeRefSec)
}

// typicalSlowdown is the same ratio for the median sample's median piece:
// the divisor for timings that are medians over repetitions. It reads
// above slowdown on any host, since a typical piece is slower than the
// fastest. NaN before the first sample.
func (h *hostProbe) typicalSlowdown() float64 { return h.typical.median() / probeRefSec }
