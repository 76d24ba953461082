package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name ("layer.operation"), its
// interval in nanoseconds since the tracer started, and the span that
// caused it (-1 for a top-level span).
type span struct {
	Name       string
	Parent     int32
	Start, End int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run goes through the same code with no spans.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	sp []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.sp))
	t.sp = append(t.sp, span{Name: name, Parent: parent, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.sp[id].End = now
	t.mu.Unlock()
}

// spans returns a snapshot of the closed spans' slice (open spans keep
// End = -1).
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.sp...)
}

// inferParents links top-level spans named with prefix childPrefix to the
// latest-starting span named parentName that contains them. Calls through
// interfaces that carry no context (the row store) cannot name their
// caller, so containment in time stands in for it.
func inferParents(sp []span, childPrefix, parentName string) {
	var parents []int32
	for i, s := range sp {
		if s.Name == parentName && s.End >= 0 {
			parents = append(parents, int32(i))
		}
	}
	sort.Slice(parents, func(a, b int) bool { return sp[parents[a]].Start < sp[parents[b]].Start })
	for i := range sp {
		s := &sp[i]
		if s.Parent >= 0 || !strings.HasPrefix(s.Name, childPrefix) {
			continue
		}
		// The latest parent starting at or before the child that still
		// contains it.
		k := sort.Search(len(parents), func(k int) bool { return sp[parents[k]].Start > s.Start })
		for k--; k >= 0; k-- {
			p := sp[parents[k]]
			if p.End >= s.End {
				s.Parent = parents[k]
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(sp []span) []int64 {
	children := make([][]int32, len(sp))
	for i, s := range sp {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(sp))
	type iv struct{ a, b int64 }
	var buf []iv
	for i, s := range sp {
		if s.End < 0 {
			continue
		}
		buf = buf[:0]
		for _, c := range children[i] {
			cs := sp[c]
			if cs.End < 0 {
				continue
			}
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				buf = append(buf, iv{a, b})
			}
		}
		sort.Slice(buf, func(x, y int) bool { return buf[x].a < buf[y].a })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range buf {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// busy sums the durations of closed spans per name, in seconds.
func busy(sp []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range sp {
		if s.End >= 0 {
			out[s.Name] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// countSpans counts closed spans per name.
func countSpans(sp []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range sp {
		if s.End >= 0 {
			out[s.Name]++
		}
	}
	return out
}

// selfByLayer sums self time per layer, the span name's first component,
// leaving out spans that only wait.
func selfByLayer(sp []span, self []int64) map[string]float64 {
	out := map[string]float64{}
	for i, s := range sp {
		if s.End < 0 || waitSpans[s.Name] {
			continue
		}
		layer := s.Name
		if k := strings.IndexByte(layer, '.'); k >= 0 {
			layer = layer[:k]
		}
		out[layer] += float64(self[i]) / 1e9
	}
	return out
}

// writeSpans writes the spans as gzipped JSON lines, one per span, with
// the run ID, the root span of each span's request and its self time.
func writeSpans(path, run string, sp []span, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	type rec struct {
		Run    string `json:"run"`
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Root   int    `json:"root"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	for i, s := range sp {
		root := i
		for sp[root].Parent >= 0 {
			root = int(sp[root].Parent)
		}
		if err := enc.Encode(rec{run, i, s.Parent, root, s.Name, s.Start, s.End, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
