package main

import (
	"math/rand"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
)

// Isolated layer calls, sized from the workload's own configuration: its
// parcel shape for the codec, its block set for the translation table,
// and its measured event-queue depth for the DES engine. Each figure is
// the median ns/call over a few repetitions, to be set against the
// end-to-end figures the same layer contributes to.

func isolatedLayers(sp *spans, sh *shape, depth float64, quick bool) vals {
	iters, reps := 200_000, 5
	if quick {
		iters, reps = 2_000, 1
	}
	v := vals{}
	sp.do("parcel.codec_isolated", func() {
		v["parcel.encode_ns"], v["parcel.decode_ns"] = codecNs(sh.parcel, iters, reps)
	})
	sp.do("netsim.transtable_isolated", func() {
		v["netsim.transtable_lookup_ns"], v["netsim.transtable_update_ns"] = transTableNs(sh.blocks, iters, reps)
	})
	sp.do("netsim.event_isolated", func() {
		v["netsim.event_ns"] = eventNs(int(depth+0.5), iters, reps)
	})
	return v
}

// timeReps runs body reps times and returns the median ns per iteration.
func timeReps(iters, reps int, body func()) float64 {
	xs := make([]float64, reps)
	for r := range xs {
		t := time.Now()
		body()
		xs[r] = since(t) / float64(iters)
	}
	return median(xs)
}

// sink keeps the compiler from discarding measured results.
var sink int

func codecNs(p *parcel.Parcel, iters, reps int) (enc, dec float64) {
	buf := make([]byte, 0, p.WireSize())
	enc = timeReps(iters, reps, func() {
		for i := 0; i < iters; i++ {
			buf = parcel.AppendEncode(buf[:0], p)
		}
	})
	dec = timeReps(iters, reps, func() {
		for i := 0; i < iters; i++ {
			q, err := parcel.Decode(buf)
			if err == nil {
				sink += len(q.Payload)
			}
		}
	})
	return enc, dec
}

// transTableNs times Lookup and Update on a table holding blocks, in a
// fixed pseudo-random order over the set.
func transTableNs(blocks []gas.BlockID, iters, reps int) (lookup, update float64) {
	t := netsim.NewTransTable(0)
	for i, b := range blocks {
		t.Update(b, i%2)
	}
	order := make([]gas.BlockID, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range order {
		order[i] = blocks[rng.Intn(len(blocks))]
	}
	lookup = timeReps(iters, reps, func() {
		for i := 0; i < iters; i++ {
			o, _ := t.Lookup(order[i%len(order)])
			sink += o
		}
	})
	update = timeReps(iters, reps, func() {
		for i := 0; i < iters; i++ {
			t.Update(order[i%len(order)], i&1)
		}
	})
	return lookup, update
}

// eventNs times one After+dispatch on an engine holding depth other
// pending events (scheduled far in the future, so every step pops the
// measured event and sifts through the full heap).
func eventNs(depth, iters, reps int) float64 {
	return timeReps(iters, reps, func() {
		eng := netsim.NewEngine()
		for i := 0; i < depth; i++ {
			eng.At(netsim.VTime(1<<40+i), func() {})
		}
		var tick func()
		tick = func() { eng.After(1, tick) }
		eng.After(1, tick)
		for i := 0; i < iters; i++ {
			eng.Step()
		}
	})
}
