package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from the benchmark's own files around public calls only;
// spans inside the program under test are a later change.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for the
	// root span of an operation.
	Parent int `json:"parent"`
	// Op is shared by every span of one packet sample, session or
	// discovery.
	Op int64 `json:"op"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, StartNs: time.Since(r.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].EndNs = time.Since(r.t0).Nanoseconds()
}

// selfTimes returns, per span name, the median self time in ns: a
// span's duration minus the part its direct children cover.
func (r *recorder) selfTimes() map[string]float64 {
	if r == nil {
		return nil
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string][]float64{}
	for i, s := range r.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.EndNs-s.StartNs-child[i]))
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// write emits the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes lists the median self time of every span name.
func (r *recorder) printSelfTimes() {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  span self times (median, %d spans):\n", len(r.spans))
	for _, n := range names {
		fmt.Printf("    %-34s %12.0f ns\n", n, self[n])
	}
}
