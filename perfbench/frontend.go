package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/corpus"
	"repro/internal/ordering"
	"repro/internal/schedule"
	"repro/internal/sparse"
	"repro/internal/symbolic"
)

// relaxLevels are the pipeline's amalgamation levels (corpus default).
var relaxLevels = []int{1, 4}

// frontCounts accumulates the exact counts of a front-end replay and, in
// the sequential allocation pass, the bytes each layer allocated.
type frontCounts struct {
	mu        sync.Mutex
	factorNNZ int64
	nodes     int64
	alloc     map[string]float64 // layer → bytes; nil outside the allocation pass
}

// stage runs fn inside a span named layer.op and, in the allocation pass,
// charges the bytes it allocated to the layer.
func (fc *frontCounts) stage(t *tracer, parent int32, layer, op string, fn func() error) error {
	var a0 float64
	if fc != nil && fc.alloc != nil {
		a0 = allocBytes()
	}
	id := t.begin(layer+"."+op, parent)
	err := fn()
	t.end(id)
	if fc != nil && fc.alloc != nil {
		fc.alloc[layer] += allocBytes() - a0
	}
	return err
}

// replayEntry is corpus.Pipeline's per-matrix work replayed one public
// call at a time, so each layer gets its own span: read and parse the
// file, symmetrize, then per ordering permute and, per relax level, build
// the elimination tree, count columns and amalgamate. It must produce the
// pipeline's trees bit for bit; the traced run checks that.
func replayEntry(t *tracer, parent int32, e corpus.Entry, dir string, fc *frontCounts) ([]corpus.Instance, error) {
	var m, s *sparse.Matrix
	err := fc.stage(t, parent, "sparse", "parse", func() error {
		data, err := os.ReadFile(filepath.Join(dir, e.Name+".mtx"))
		if err != nil {
			return err
		}
		var p sparse.Parser
		m, err = p.ParseBytes(data)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	fc.stage(t, parent, "sparse", "symmetrize", func() error { s = m.Symmetrize(); return nil })
	var out []corpus.Instance
	for _, ord := range corpus.OrderingNames() {
		var perm []int
		err := fc.stage(t, parent, "ordering", ord, func() (err error) {
			switch ord {
			case "natural":
				perm = ordering.Natural(s)
			case "rcm":
				perm, err = ordering.ReverseCuthillMcKee(s)
			case "amd":
				perm, err = ordering.MinimumDegree(s)
			case "nd":
				perm, err = ordering.NestedDissection(s, ordering.NestedDissectionOptions{LeafSize: 32})
			default:
				err = fmt.Errorf("no replay for ordering %q", ord)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.Name, ord, err)
		}
		var pm *sparse.Matrix
		if err := fc.stage(t, parent, "sparse", "permute", func() (err error) { pm, err = s.Permute(perm); return err }); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", e.Name, ord, err)
		}
		for ri, r := range relaxLevels {
			var (
				par    []int
				counts []int64
				res    *symbolic.AssemblyResult
			)
			err := fc.stage(t, parent, "symbolic", "etree", func() (err error) { par, err = symbolic.EliminationTree(pm); return err })
			if err == nil {
				err = fc.stage(t, parent, "symbolic", "counts", func() (err error) { counts, err = symbolic.ColumnCounts(pm, par); return err })
			}
			if err == nil {
				err = fc.stage(t, parent, "symbolic", "amalgamate", func() (err error) {
					res, err = symbolic.Amalgamate(par, counts, symbolic.AssemblyOptions{Relax: r})
					return err
				})
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s/r%d: %w", e.Name, ord, r, err)
			}
			if fc != nil && ri == 0 {
				fc.mu.Lock()
				fc.factorNNZ += symbolic.FactorNNZ(counts)
				fc.mu.Unlock()
			}
			out = append(out, corpus.Instance{
				Name: fmt.Sprintf("%s/%s/r%d", e.Name, ord, r), Matrix: e.Name, Family: e.Family,
				Source: "file", Ordering: ord, Relax: r, Tree: res.Tree,
			})
		}
	}
	return out, nil
}

// replaySource runs replayEntry for the entries on a fixed set of workers,
// like corpus.Pipeline, and delivers instances in entry order. Each call
// that has to wait for a matrix records the wait as a corpus.next span.
type replaySource struct {
	t      *tracer
	parent *int32 // the span the consumer is in when it asks for the next instance
	outs   []chan replayOut
	stop   chan struct{}
	wg     sync.WaitGroup
	k      int
	cur    []corpus.Instance
	err    error
}

type replayOut struct {
	insts []corpus.Instance
	err   error
}

func newReplaySource(t *tracer, parent *int32, entries []corpus.Entry, dir string, workers int, fc *frontCounts) *replaySource {
	rs := &replaySource{t: t, parent: parent, stop: make(chan struct{})}
	rs.outs = make([]chan replayOut, len(entries))
	for i := range rs.outs {
		rs.outs[i] = make(chan replayOut, 1)
	}
	sem := make(chan struct{}, workers)
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		for i, e := range entries {
			select {
			case sem <- struct{}{}:
			case <-rs.stop:
				return
			}
			rs.wg.Add(1)
			go func(i int, e corpus.Entry) {
				defer rs.wg.Done()
				defer func() { <-sem }()
				id := t.begin("corpus.matrix", -1)
				insts, err := replayEntry(t, id, e, dir, fc)
				t.end(id)
				rs.outs[i] <- replayOut{insts, err}
			}(i, e)
		}
	}()
	return rs
}

// next returns the next instance in entry order; ok is false at the end.
func (rs *replaySource) next() (corpus.Instance, bool, error) {
	if rs.err != nil {
		return corpus.Instance{}, false, rs.err
	}
	id := rs.t.begin("corpus.next", *rs.parent)
	defer rs.t.end(id)
	for len(rs.cur) == 0 {
		if rs.k >= len(rs.outs) {
			return corpus.Instance{}, false, nil
		}
		out := <-rs.outs[rs.k]
		rs.k++
		if out.err != nil {
			rs.err = out.err
			return corpus.Instance{}, false, out.err
		}
		rs.cur = out.insts
	}
	inst := rs.cur[0]
	rs.cur = rs.cur[1:]
	return inst, true, nil
}

// NextInstance implements schedule.InstanceSource.
func (rs *replaySource) NextInstance() (schedule.Instance, bool, error) {
	inst, ok, err := rs.next()
	return schedule.Instance{Name: inst.Name, Tree: inst.Tree}, ok, err
}

// close stops dispatching and waits for every worker to finish.
func (rs *replaySource) close() {
	close(rs.stop)
	// Workers that already started deliver into their buffered channel and
	// exit, so waiting cannot block on an unread result.
	rs.wg.Wait()
}

// pipelineSource adapts corpus.Pipeline to schedule.InstanceSource.
type pipelineSource struct{ p *corpus.Pipeline }

func (ps pipelineSource) NextInstance() (schedule.Instance, bool, error) {
	inst, ok, err := ps.p.Next()
	if err != nil || !ok {
		return schedule.Instance{}, false, err
	}
	if inst.Source != "file" {
		return schedule.Instance{}, false, fmt.Errorf("%s: built from %s, not from its .mtx file", inst.Name, inst.Source)
	}
	return schedule.Instance{Name: inst.Name, Tree: inst.Tree}, true, nil
}
