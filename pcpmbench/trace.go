package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded call into a layer. Layer is the name's prefix up to
// the first dot ("core.solve" belongs to core).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // 0: no parent
	Req     int64  `json:"req"`    // request id; 0 outside a request
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id for end and for child spans.
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req, StartNS: now, EndNS: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.EndNS >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		covered := coveredNS(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	return self
}

// coveredNS is the length of the union of the children's intervals clipped
// to the parent's.
func coveredNS(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi <= lo {
			continue
		}
		if lo > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = lo, hi
		} else if hi > curEnd {
			curEnd = hi
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

func (t *tracer) write(path string, self map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Spans    []span             `json:"spans"`
		SelfTime map[string]float64 `json:"self_s"`
	}{t.spans, self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
