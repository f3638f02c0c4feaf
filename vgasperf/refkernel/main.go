// Command refkernel is the benchmark's reference kernel: a fixed piece of
// work that uses no repository code, run as a child process of vgasperf.
// For each line "N" on standard input it runs N events of the kernel from
// a collected heap and replies with one line, the process CPU time (user
// + system) those events took, in nanoseconds. It exits at end of input.
//
// The kernel is a discrete-event loop over a binary heap of 16384
// in-flight events; each step allocates its successor's 16-byte payload
// and updates a per-entity map and a 128-byte per-entity state record.
// These are the kinds of work the workloads spend their host time on,
// and its 2 MiB of state outgrows the private caches, so contention for
// the shared cache and memory slows it much as it slows the workloads (a
// kernel that fit in L2 slowed less than they did). vgasperf samples it
// around every round and reports the round's CPU cost per op in units of
// the kernel's CPU cost per event (cpu_cost_per_op). A shared host
// changes the speed of its virtual CPUs from second to second and from
// run to run (clock frequency, a busy hyperthread sibling, cache and
// memory-bandwidth contention); the kernel measures that speed alongside
// each round, and the ratio leaves it out while every change to the
// repository's code still shows in full.
//
// It is a binary of its own because a loop this small runs up to 20%
// faster or slower depending on where the linker places it: inside
// vgasperf, any change to the repository's code could move it and so
// move every workload's cost. Built alone, it changes only when this
// file or the Go toolchain does.
package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

const (
	refEntities = 16384
	refWords    = 16 // 128 bytes of state per entity: 2 MiB in all
)

type refEvent struct {
	at  uint64
	ent int32
	pl  []byte
}

// refHeap is a binary min-heap of events ordered by time.
type refHeap []refEvent

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if s[i].at <= s[c].at {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// lcg is Knuth's MMIX linear congruential generator.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// run runs events steps of the kernel, always from the same state.
func run(events int) {
	h := make(refHeap, 0, refEntities)
	seen := make(map[int32]uint64, refEntities)
	ents := make([][refWords]uint64, refEntities)
	state := uint64(1)
	for e := int32(0); e < refEntities; e++ {
		state = lcg(state)
		h.push(refEvent{at: state >> 54, ent: e, pl: make([]byte, 16)})
	}
	for i := 0; i < events; i++ {
		ev := h.pop()
		state = lcg(state ^ uint64(ev.pl[0]) ^ uint64(ev.ent))
		seen[ev.ent] += ev.at
		e := &ents[ev.ent]
		e[state%refWords] += e[ev.at%refWords] + 1
		pl := make([]byte, 16)
		pl[0] = byte(state >> 40)
		h.push(refEvent{at: ev.at + 1 + state>>54, ent: int32(state>>33) % refEntities, pl: pl})
	}
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func main() {
	// One P: the kernel is single-threaded, and its garbage is collected
	// on the thread that made it.
	runtime.GOMAXPROCS(1)
	in := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	for in.Scan() {
		events, err := strconv.Atoi(strings.TrimSpace(in.Text()))
		if err != nil || events <= 0 {
			fmt.Fprintf(os.Stderr, "refkernel: bad request %q\n", in.Text())
			os.Exit(2)
		}
		runtime.GC()
		c0 := cpuNs()
		run(events)
		fmt.Fprintln(out, cpuNs()-c0)
		if err := out.Flush(); err != nil {
			os.Exit(1)
		}
	}
}
