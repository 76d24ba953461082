package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/schedule"
	"repro/internal/tree"
)

// randomWeightCopies is how many random-weight copies of each suite tree
// the random-weights workload evaluates (paper §VI-E draws several per
// shape).
const randomWeightCopies = 32

// gridBench evaluates the paper's grid — postorder, liu and minmem, then
// the minmem traversal replayed under the six eviction policies at two
// budgets — on schedule.Local through schedule.GridSource, into a
// BinaryRowSink. matrix-grid feeds it corpus.Pipeline over generated .mtx
// files; random-weights feeds it random-weight copies of the dataset suite.
type gridBench struct {
	dir           string
	workers       int
	matrices      []matrixSpec
	randomWeights bool

	mtxDir  string
	entries []corpus.Entry
	insts   []schedule.Instance
	// batchOf maps each random-weight copy to its suite tree: a batch, the
	// unit batch_p50_ms and batch_tail_ms time, is one suite tree's copies.
	// Without it every tree is a batch of its own.
	batchOf map[string]string
	// wrapJobs, when set, wraps the grid's job source; tests inject a
	// failing job through it.
	wrapJobs func(schedule.JobSource) schedule.JobSource
}

func (g *gridBench) setup(seed int64) (map[string]any, error) {
	if !g.randomWeights {
		g.mtxDir = filepath.Join(g.dir, "mtx")
		entries, inputs, err := writeMatrices(g.mtxDir, g.matrices, seed)
		if err != nil {
			return nil, err
		}
		g.entries = entries
		return map[string]any{"matrices": matrixProvenance(inputs)}, nil
	}
	base, err := dataset.AssemblySuite(dataset.Full)
	if err != nil {
		return nil, err
	}
	g.insts = randomWeightInstances(base, seed)
	g.batchOf = make(map[string]string, len(g.insts))
	for i, in := range g.insts {
		g.batchOf[in.Name] = base[i/randomWeightCopies].Name
	}
	nodes := 0
	for _, in := range g.insts {
		nodes += in.Tree.Len()
	}
	return map[string]any{"base_trees": len(base), "trees": len(g.insts), "tree_nodes": nodes, "tree_digests_sha256": instanceDigest(g.insts)}, nil
}

// randomWeightInstances draws randomWeightCopies random-weight copies of
// every base tree, each from its own generator derived from the seed.
func randomWeightInstances(base []dataset.Instance, seed int64) []schedule.Instance {
	out := make([]schedule.Instance, 0, len(base)*randomWeightCopies)
	for bi, inst := range base {
		for c := 0; c < randomWeightCopies; c++ {
			out = append(out, schedule.Instance{
				Name: fmt.Sprintf("%s/w%d", inst.Name, c),
				Tree: tree.RandomizeWeights(inst.Tree, subRand(seed, 3, int64(bi), int64(c))),
			})
		}
	}
	return out
}

// instanceDigest hashes the digests of the instances' trees in order.
func instanceDigest(insts []schedule.Instance) string {
	var d []tree.Digest
	for _, in := range insts {
		d = append(d, in.Tree.Digest())
	}
	return digestList(d)
}

func (g *gridBench) pass(ctx context.Context, t *tracer, root int32, lat *latencies) (passStats, error) {
	var (
		cur     = root // the span GridSource's Next runs in
		insts   schedule.InstanceSource
		replays *replaySource
		fc      *frontCounts
	)
	switch {
	case g.randomWeights:
		insts = schedule.InstanceSliceSource(g.insts)
	case t == nil:
		p, err := corpus.NewPipeline(g.entries, corpus.PipelineOptions{Dir: g.mtxDir, Workers: g.workers})
		if err != nil {
			return passStats{}, err
		}
		defer p.Close()
		insts = pipelineSource{p}
	default:
		fc = &frontCounts{}
		replays = newReplaySource(t, &cur, g.entries, g.mtxDir, g.workers, fc)
		defer replays.close()
		insts = replays
	}
	memories := func(tr *tree.Tree, out schedule.Outcome) ([]int64, error) {
		return gridBudgets(tr.MaxMemReq(), out.Memory), nil
	}
	jobs, err := schedule.GridSource(insts, minMemoryAlgos, orderBy, schedule.EvictionPolicyNames(), memories)
	if err != nil {
		return passStats{}, err
	}
	if g.wrapJobs != nil {
		jobs = g.wrapJobs(jobs)
	}
	f, err := os.Create(filepath.Join(g.dir, "rows.bin"))
	if err != nil {
		return passStats{}, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	out := schedule.NewBinaryRowSink(bw)
	gs := &gridStream{src: jobs, t: t, cur: &cur, root: root, lat: lat, batchOf: g.batchOf,
		check: newGridCheck(len(schedule.EvictionPolicyNames())), out: out, secs: map[string]float64{}, maxSecs: map[string]float64{}}
	streamErr := schedule.Local{}.Stream(ctx, gs, gs, schedule.StreamOptions{Workers: g.workers})
	if streamErr == nil {
		gs.finish()
		gs.finishBatch()
		if err := out.Flush(); err != nil {
			return passStats{}, err
		}
		if err := bw.Flush(); err != nil {
			return passStats{}, err
		}
	}
	gs.check.finish()
	ps := passStats{
		units:     gs.trees,
		rows:      gs.pushed,
		attempted: max(gs.check.attempted, gs.read),
		failed:    gs.check.failed + max(gs.read-gs.pushed, 0),
		digest:    gs.check.sum(),
		layer: map[string]float64{
			"hillvalley.liu.busy_s":      gs.secs["liu"],
			"hillvalley.liu.max_job_s":   gs.maxSecs["liu"],
			"traversal.minmem.busy_s":    gs.secs["minmem"],
			"traversal.postorder.busy_s": gs.secs["postorder"],
			"traversal.minmem.max_job_s": gs.maxSecs["minmem"],
			"schedule.policy.busy_s":     gs.secs["policy"],
			"tree.nodes":                 float64(gs.nodes),
		},
	}
	if fc != nil {
		ps.layer["symbolic.factor_nnz"] = float64(fc.factorNNZ)
	}
	for _, s := range gs.secs {
		ps.hidden += s
	}
	if t != nil {
		wall := time.Since(gs.start).Seconds()
		ps.layer["schedule.worker_idle_frac"] = math.Max(0, 1-(cpuSeconds()-gs.cpu0)/(wall*float64(g.workers)))
	}
	return ps, streamErr
}

// gridStream sits between GridSource, Local.Stream and the sinks. As the
// job source it timestamps each batch's first job; as the row sink it checks
// rows, feeds the BinaryRowSink, and closes a batch's latency when its last
// row arrives. With a tracer it records a span per Next and per Push.
type gridStream struct {
	src     schedule.JobSource
	t       *tracer
	cur     *int32
	root    int32
	lat     *latencies
	batchOf map[string]string

	mu        sync.Mutex // orders the source side's queues against the sink side
	pending   []treeStart
	batches   []treeStart
	last      string // instance of the last job read
	lastBatch string // batch of the last job read
	read      int
	start     time.Time // first Next
	cpu0      float64   // process CPU seconds at the first Next

	check     *gridCheck
	out       *schedule.BinaryRowSink
	pushed    int
	trees     int
	nodes     int
	secs      map[string]float64
	maxSecs   map[string]float64
	open      treeStart
	openBatch treeStart
	lastRow   time.Time
}

// treeStart is a tree's, or a batch's, first job leaving the source.
type treeStart struct {
	name string
	lo   int64
	at   time.Time
}

// batch returns the batch an instance belongs to.
func (gs *gridStream) batch(instance string) string {
	if b, ok := gs.batchOf[instance]; ok {
		return b
	}
	return instance
}

// Next implements schedule.JobSource.
func (gs *gridStream) Next() (schedule.Job, bool, error) {
	if gs.read == 0 && gs.t != nil {
		gs.start, gs.cpu0 = time.Now(), cpuSeconds()
	}
	id := gs.t.begin("schedule.source.next", gs.root)
	if id >= 0 {
		*gs.cur = id
	}
	j, ok, err := gs.src.Next()
	gs.t.end(id)
	if !ok || err != nil {
		return j, ok, err
	}
	now := time.Now()
	gs.mu.Lock()
	if gs.read == 0 || gs.last != j.Instance {
		gs.last = j.Instance
		gs.pending = append(gs.pending, treeStart{j.Instance, j.Tree.MaxMemReq(), now})
		gs.nodes += j.Tree.Len()
		if b := gs.batch(j.Instance); gs.read == 0 || b != gs.lastBatch {
			gs.lastBatch = b
			gs.batches = append(gs.batches, treeStart{b, 0, now})
		}
	}
	gs.read++
	gs.mu.Unlock()
	return j, true, nil
}

// Push implements schedule.RowSink.
func (gs *gridStream) Push(r schedule.Row) error {
	id := gs.t.begin("schedule.sink.push", gs.root)
	defer gs.t.end(id)
	now := time.Now()
	if r.Instance != gs.open.name {
		gs.finish()
		gs.mu.Lock()
		if len(gs.pending) == 0 || gs.pending[0].name != r.Instance {
			gs.mu.Unlock()
			return fmt.Errorf("row for %s arrived out of job order", r.Instance)
		}
		gs.open, gs.pending = gs.pending[0], gs.pending[1:]
		if b := gs.batch(r.Instance); b != gs.openBatch.name {
			if len(gs.batches) == 0 || gs.batches[0].name != b {
				gs.mu.Unlock()
				return fmt.Errorf("row for batch %s arrived out of job order", b)
			}
			gs.finishBatch()
			gs.openBatch, gs.batches = gs.batches[0], gs.batches[1:]
		}
		gs.mu.Unlock()
	}
	gs.lastRow = now
	gs.pushed++
	alg := r.Algorithm
	if r.Kind != schedule.KindMinMemory.String() {
		alg = "policy"
	}
	gs.secs[alg] += r.Seconds
	gs.maxSecs[alg] = math.Max(gs.maxSecs[alg], r.Seconds)
	gs.check.push(r, gs.open.lo)
	return gs.out.Push(r)
}

// finish closes the open tree.
func (gs *gridStream) finish() {
	if gs.open.name == "" {
		return
	}
	gs.trees++
	gs.open = treeStart{}
}

// finishBatch closes the open batch: its latency runs from its first job
// leaving the source to its last row reaching the sink.
func (gs *gridStream) finishBatch() {
	if gs.openBatch.name == "" {
		return
	}
	if gs.lat != nil {
		gs.lat.add(gs.lastRow.Sub(gs.openBatch.at))
	}
	gs.openBatch = treeStart{}
}

// tailWindow is the batches of one random-weights pass, so the tail is
// read per pass, each time over the same suite trees; on matrix-grid the
// default applies.
func (g *gridBench) tailWindow() int {
	if !g.randomWeights {
		return 0
	}
	return len(g.insts) / randomWeightCopies
}

func (g *gridBench) verify(context.Context) (int, int, error) { return 0, 0, nil }

func (g *gridBench) allocPass() (map[string]float64, error) {
	if g.randomWeights {
		return nil, nil
	}
	return frontAllocs(g.entries, g.mtxDir)
}

func (g *gridBench) close() error { return nil }
