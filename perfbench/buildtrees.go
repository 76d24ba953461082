package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/tree"
)

// buildTrees is the front end alone: MatrixMarket files of the four corpus
// families through corpus.Pipeline (every ordering × relax {1,4}), each
// assembly tree encoded as .tree text — what treegen -from-mtx does.
type buildTrees struct {
	dir     string
	workers int

	mtxDir  string
	entries []corpus.Entry
	prov    map[string]any
	// first holds the first pass's encoded trees; later passes must
	// reproduce them byte for byte and verify decodes them.
	first      [][]byte
	firstTrees []*tree.Tree
}

func (b *buildTrees) setup(seed int64) (map[string]any, error) {
	b.mtxDir = filepath.Join(b.dir, "mtx")
	entries, inputs, err := writeMatrices(b.mtxDir, buildTreesMatrices, seed)
	if err != nil {
		return nil, err
	}
	b.entries, b.first, b.firstTrees = entries, nil, nil
	b.prov = map[string]any{"matrices": matrixProvenance(inputs)}
	return b.prov, nil
}

// matrixProvenance lists each input's size and the digest of its bytes.
func matrixProvenance(inputs []mtxInput) []map[string]any {
	var out []map[string]any
	for _, in := range inputs {
		out = append(out, map[string]any{"name": in.spec.name, "n": in.n, "nnz_lower": in.nnz, "sha256": in.digest})
	}
	return out
}

func (b *buildTrees) pass(ctx context.Context, t *tracer, root int32, lat *latencies) (passStats, error) {
	var (
		next func() (corpus.Instance, bool, error) // the pipeline, or its traced replay
		fc   *frontCounts
	)
	if t == nil {
		p, err := corpus.NewPipeline(b.entries, corpus.PipelineOptions{Dir: b.mtxDir, Workers: b.workers})
		if err != nil {
			return passStats{}, err
		}
		defer p.Close()
		next = p.Next
	} else {
		fc = &frontCounts{}
		rs := newReplaySource(t, &root, b.entries, b.mtxDir, b.workers, fc)
		defer rs.close()
		next = rs.next
	}
	var (
		ps    passStats
		buf   bytes.Buffer
		h     = sha256.New()
		nodes int
		k     int
		fresh = b.first == nil // this pass records the trees later passes must match
	)
	for {
		t0 := time.Now()
		inst, ok, err := next()
		if err != nil {
			return ps, err
		}
		if !ok {
			break
		}
		if inst.Source != "file" {
			return ps, fmt.Errorf("%s: built from %s, not from its .mtx file", inst.Name, inst.Source)
		}
		ps.attempted++
		buf.Reset()
		id := t.begin("tree.encode", root)
		err = inst.Tree.Write(&buf)
		t.end(id)
		if err != nil {
			ps.failed++
			continue
		}
		if lat != nil {
			lat.add(time.Since(t0))
		}
		h.Write(buf.Bytes())
		switch {
		case fresh:
			b.first = append(b.first, bytes.Clone(buf.Bytes()))
			b.firstTrees = append(b.firstTrees, inst.Tree)
		case k >= len(b.first) || !bytes.Equal(b.first[k], buf.Bytes()):
			ps.failed++
		}
		k++
		ps.units++
		ps.rows += inst.Tree.Len()
		nodes += inst.Tree.Len()
	}
	if k < len(b.first) {
		ps.failed += len(b.first) - k // trees a pass failed to deliver
	}
	ps.digest = hex.EncodeToString(h.Sum(nil))
	ps.layer = map[string]float64{"tree.nodes": float64(nodes)}
	if fc != nil {
		ps.layer["symbolic.factor_nnz"] = float64(fc.factorNNZ)
	}
	return ps, nil
}

// verify decodes every tree of the first pass and checks it reads back to
// the digest of the tree the pipeline built.
func (b *buildTrees) verify(ctx context.Context) (int, int, error) {
	failed := 0
	all := sha256.New()
	for k, enc := range b.first {
		want := b.firstTrees[k].Digest()
		back, err := tree.Read(bytes.NewReader(enc))
		if err != nil || back.Digest() != want {
			failed++
		}
		all.Write(want[:])
	}
	b.prov["trees"] = len(b.first)
	b.prov["tree_digests_sha256"] = hex.EncodeToString(all.Sum(nil))
	return len(b.first), failed, nil
}

// allocPass replays the front end once on a single goroutine and returns
// the MiB each layer allocated.
func (b *buildTrees) allocPass() (map[string]float64, error) {
	return frontAllocs(b.entries, b.mtxDir)
}

func frontAllocs(entries []corpus.Entry, dir string) (map[string]float64, error) {
	fc := &frontCounts{alloc: map[string]float64{}}
	for _, e := range entries {
		if _, err := replayEntry(nil, -1, e, dir, fc); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for layer, v := range fc.alloc {
		out[layer+".alloc_mb"] = v / (1 << 20)
	}
	return out, nil
}

func (b *buildTrees) close() error { return nil }
