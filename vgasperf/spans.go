package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer. Name is
// "<layer>.<what>", the layer being the module it calls into.
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int   // index of the enclosing span, -1 for a root
}

// spans records the traced run's spans in memory. A nil *spans records
// nothing, so the plain run pays one nil check per boundary. Spans nest
// strictly (the benchmark is one driver goroutine), so the open stack
// gives every span its parent.
type spans struct {
	run   string // shared by every span of one workload run
	epoch time.Time
	list  []span
	open  []int
}

func newSpans(run string) *spans {
	return &spans{run: run, epoch: time.Now()}
}

// begin opens a span and returns its handle for end.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.list = append(s.list, span{name: name, start: int64(time.Since(s.epoch)), parent: parent})
	id := len(s.list) - 1
	s.open = append(s.open, id)
	return id
}

// end closes the span opened by begin.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].end = int64(time.Since(s.epoch))
	if n := len(s.open); n > 0 && s.open[n-1] == id {
		s.open = s.open[:n-1]
	}
}

// do runs fn inside a span.
func (s *spans) do(name string, fn func()) {
	id := s.begin(name)
	fn()
	s.end(id)
}

// layer is the module part of a span name.
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in ns: the duration of its
// spans minus the part covered by their child spans.
func (s *spans) selfTimes() map[string]int64 {
	out := map[string]int64{}
	if s == nil {
		return out
	}
	for _, sp := range s.list {
		out[layer(sp.name)] += sp.end - sp.start
	}
	for _, sp := range s.list {
		if sp.parent >= 0 {
			out[layer(s.list[sp.parent].name)] -= sp.end - sp.start
		}
	}
	return out
}

// printSelfTimes writes the per-layer self-time table.
func (s *spans) printSelfTimes(w io.Writer) {
	self := s.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "self_time layer=%s ms=%.3f\n", k, float64(self[k])/1e6)
	}
}

// chromeSpan is one Chrome trace-event record ("X" complete event).
type chromeSpan struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing). Each event's args carry its index, its
// parent's index and the shared run id.
func (s *spans) writeChrome(w io.Writer) error {
	evs := make([]chromeSpan, len(s.list))
	for i, sp := range s.list {
		evs[i] = chromeSpan{
			Name: sp.name, Cat: layer(sp.name), Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": sp.parent, "run": s.run},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}
