package main

import (
	"sort"
	"sync"
	"time"

	"flowzip"
)

// Trace threads. Spans on one thread nest by time containment.
const (
	tidMain   = 1 // the benchmark's driving goroutine
	tidSender = 2 // the open-loop generator goroutine of ingest phase B
)

// recorder times the benchmark's calls into flowzip's layers. Every span is
// written to an obs tracer (the Perfetto trace of a traced run) and kept for
// the per-layer busy/self summary. A nil recorder is the untraced run: its
// spans cost one nil check.
type recorder struct {
	tracer *flowzip.Tracer

	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	layer, name string
	tid         int64
	start, end  time.Time
}

func (r spanRec) dur() time.Duration { return r.end.Sub(r.start) }

func newRecorder(process string) *recorder {
	t := flowzip.NewTracer(process)
	t.NameThread(tidMain, "benchmark")
	t.NameThread(tidSender, "open-loop sender")
	return &recorder{tracer: t}
}

// span is one open region; end records it.
type span struct {
	r   *recorder
	os  flowzip.Span
	rec spanRec
}

// start opens a span named layer.name on thread tid.
func (r *recorder) start(tid int64, layer, name string) span {
	if r == nil {
		return span{}
	}
	return span{
		r:   r,
		os:  r.tracer.Span(tid, layer+"."+name),
		rec: spanRec{layer: layer, name: name, tid: tid, start: time.Now()},
	}
}

// end records the span and returns its duration.
func (s span) end() time.Duration {
	if s.r == nil {
		return 0
	}
	s.os.End()
	s.rec.end = time.Now()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, s.rec)
	s.r.mu.Unlock()
	return s.rec.dur()
}

// durations returns the seconds of every recorded layer.name span.
func (r *recorder) durations(layer, name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.layer == layer && s.name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// layerTime is one row of the per-layer summary.
type layerTime struct {
	Layer string  `json:"layer"`
	Spans int     `json:"spans"`
	BusyS float64 `json:"busy_s"`
	SelfS float64 `json:"self_s"`
}

// layerTimes computes each layer's busy time (the summed duration of its
// spans that are not nested in a span of the same layer) and self time (busy
// time minus the part covered by directly nested spans of any layer).
func (r *recorder) layerTimes() []layerTime {
	spans := append([]spanRec(nil), r.spans...)
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		return a.end.After(b.end)
	})
	self := make([]time.Duration, len(spans))
	nestedInSame := make([]bool, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.tid == s.tid && !s.start.Before(top.start) && !s.end.After(top.end) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		self[i] = s.dur()
		for _, a := range stack {
			if spans[a].layer == s.layer {
				nestedInSame[i] = true
			}
		}
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= s.dur()
		}
		stack = append(stack, i)
	}
	byLayer := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		lt := byLayer[s.layer]
		if lt == nil {
			lt = &layerTime{Layer: s.layer}
			byLayer[s.layer] = lt
			order = append(order, s.layer)
		}
		lt.Spans++
		if !nestedInSame[i] {
			lt.BusyS += s.dur().Seconds()
		}
		lt.SelfS += self[i].Seconds()
	}
	sort.Strings(order)
	out := make([]layerTime, 0, len(order))
	for _, l := range order {
		out = append(out, *byLayer[l])
	}
	return out
}
