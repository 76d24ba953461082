package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/schedule"
	"repro/internal/tree"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		enough  bool
		comment string
	}{
		{n: 10, enough: false, comment: "ten samples leave none for a tail"},
		{n: 11, value: 1, pct: 100.0 / 11, enough: true, comment: "the smallest sample has ten beyond it"},
		{n: 100, value: 90, pct: 90, enough: true},
		{n: 1000, value: 990, pct: 99, enough: true},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i) // reversed: tail must sort
		}
		v, pct, ok := tail(samples)
		if ok != tc.enough || (ok && (v != tc.value || pct != tc.pct)) {
			t.Errorf("n=%d: tail = %v p%v ok=%v, want %v p%v ok=%v (%s)", tc.n, v, pct, ok, tc.value, tc.pct, tc.enough, tc.comment)
		}
		beyond := 0
		for _, s := range samples {
			if s > v {
				beyond++
			}
		}
		if ok && beyond != minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", tc.n, beyond, minBeyond)
		}
	}
}

func TestLatencySummaryWindows(t *testing.T) {
	var l latencies
	for i := 0; i < 3*tailWindow; i++ {
		d := time.Millisecond
		if i < tailWindow && i%50 == 0 {
			d = time.Second // one bad window: twenty slow samples
		}
		l.add(d)
	}
	p50, tl, desc, err := l.summary()
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 1 || tl != 1 {
		t.Errorf("p50 %v tail %v, want 1 ms each: one bad window must not set the tail", p50, tl)
	}
	if !strings.Contains(desc, "3 windows") {
		t.Errorf("description %q does not name the windows", desc)
	}
	var short latencies
	for i := 0; i < 10; i++ {
		short.add(time.Millisecond)
	}
	if _, _, _, err := short.summary(); err == nil {
		t.Error("ten samples gave a tail")
	}
}

func TestLatencySummaryPerPassWindow(t *testing.T) {
	l := latencies{window: 20}
	for pass := 0; pass < 3; pass++ {
		for i := 1; i <= 20; i++ {
			l.add(time.Duration(i) * time.Millisecond)
		}
	}
	_, tl, desc, err := l.summary()
	if err != nil {
		t.Fatal(err)
	}
	// Each 20-sample pass has its tail at the 10th smallest value, p50.
	if tl != 10 || !strings.Contains(desc, "3 windows of 20 samples of p50.00") {
		t.Errorf("tail %v (%s), want 10 ms from 3 windows of 20 samples of p50.00", tl, desc)
	}
}

var testMatrices = []matrixSpec{
	{"grid2d-9", corpus.FamilyGrid2D, "grid2d", 9, 0},
	{"rmat-300", corpus.FamilyPowerLaw, "rmat", 300, 3},
}

func matrixDigests(t *testing.T, seed int64) []string {
	t.Helper()
	_, inputs, err := writeMatrices(t.TempDir(), testMatrices, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, in := range inputs {
		out = append(out, in.digest)
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := matrixDigests(t, 7), matrixDigests(t, 7), matrixDigests(t, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: seed 7 wrote different bytes twice", testMatrices[i].name)
		}
		if a[i] == c[i] {
			t.Errorf("%s: seeds 7 and 8 wrote the same bytes", testMatrices[i].name)
		}
	}
	base, err := dataset.AssemblySuite(dataset.Small)
	if err != nil {
		t.Fatal(err)
	}
	w7, w7b, w8 := instanceDigest(randomWeightInstances(base, 7)), instanceDigest(randomWeightInstances(base, 7)), instanceDigest(randomWeightInstances(base, 8))
	if w7 != w7b || w7 == w8 {
		t.Errorf("random-weight trees: seed 7 twice %s %s, seed 8 %s", w7, w7b, w8)
	}
}

// validInstance returns the rows of one correct grid instance: optimum 20,
// largest node requirement 10, so budgets 10 and 15.
func validInstance(name string) []schedule.Row {
	mm := schedule.KindMinMemory.String()
	rows := []schedule.Row{
		{Instance: name, Algorithm: "postorder", Kind: mm, Memory: 25},
		{Instance: name, Algorithm: "liu", Kind: mm, Memory: 20},
		{Instance: name, Algorithm: "minmem", Kind: mm, Memory: 20},
	}
	for _, b := range []int64{10, 15} {
		for _, p := range schedule.EvictionPolicyNames() {
			rows = append(rows, schedule.Row{Instance: name, Algorithm: p, Kind: schedule.KindMinIO.String(), Budget: b, Memory: b})
		}
	}
	return rows
}

func TestGridCheckRejectsTamperedRows(t *testing.T) {
	policies := len(schedule.EvictionPolicyNames())
	for _, tc := range []struct {
		name   string
		tamper func([]schedule.Row) []schedule.Row
	}{
		{"untampered", func(r []schedule.Row) []schedule.Row { return r }},
		{"liu differs from minmem", func(r []schedule.Row) []schedule.Row { r[1].Memory = 21; return r }},
		{"postorder beats the optimum", func(r []schedule.Row) []schedule.Row { r[0].Memory = 19; return r }},
		{"policy over budget", func(r []schedule.Row) []schedule.Row { r[5].Memory = r[5].Budget + 1; return r }},
		{"policy row missing", func(r []schedule.Row) []schedule.Row { return r[:len(r)-1] }},
		{"budget outside the sweep", func(r []schedule.Row) []schedule.Row { r[4].Budget = 12; return r }},
	} {
		c := newGridCheck(policies)
		for _, inst := range []string{"a", "b"} {
			rows := validInstance(inst)
			if inst == "b" {
				rows = tc.tamper(rows)
			}
			for _, r := range rows {
				c.push(r, 10)
			}
		}
		c.finish()
		wantFailed := 1
		if tc.name == "untampered" {
			wantFailed = 0
		}
		if c.failed != wantFailed || c.attempted != 2*(3+2*policies) {
			t.Errorf("%s: failed %d of %d, want %d of %d", tc.name, c.failed, c.attempted, wantFailed, 2*(3+2*policies))
		}
	}
}

// smallGrid is a random-weights bench over a handful of small trees.
func smallGrid(t *testing.T) *gridBench {
	t.Helper()
	g := &gridBench{dir: t.TempDir(), workers: 2, randomWeights: true}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		tr, err := tree.Random(rng, tree.RandomOptions{Nodes: 40, MaxF: 50, MaxN: 10, Attach: tree.AttachKind(i % 3)})
		if err != nil {
			t.Fatal(err)
		}
		g.insts = append(g.insts, schedule.Instance{Name: fmt.Sprintf("t%d", i), Tree: tr})
	}
	return g
}

func TestRandomWeightBatchesGroupCopies(t *testing.T) {
	g := smallGrid(t)
	var lat latencies
	ps, err := g.pass(context.Background(), nil, -1, &lat)
	if err != nil || len(lat.ms) != len(g.insts) {
		t.Fatalf("without batchOf: %d latencies for %d trees, %v", len(lat.ms), len(g.insts), err)
	}
	g.batchOf = map[string]string{}
	for i, in := range g.insts {
		g.batchOf[in.Name] = fmt.Sprintf("base%d", i/3)
	}
	lat = latencies{}
	grouped, err := g.pass(context.Background(), nil, -1, &lat)
	if err != nil || len(lat.ms) != 2 {
		t.Fatalf("two batches of three trees gave %d latencies, %v", len(lat.ms), err)
	}
	if grouped.units != ps.units || grouped.digest != ps.digest {
		t.Errorf("batching changed the pass: %d trees %s, want %d trees %s", grouped.units, grouped.digest, ps.units, ps.digest)
	}
}

func TestInjectedFailingJobRaisesFailedFrac(t *testing.T) {
	ctx := context.Background()
	g := smallGrid(t)
	var lat latencies
	ok, err := g.pass(ctx, nil, -1, &lat)
	if err != nil || ok.failed != 0 || ok.attempted == 0 || ok.rows != ok.attempted {
		t.Fatalf("clean pass: %+v, %v", ok, err)
	}
	g.wrapJobs = func(src schedule.JobSource) schedule.JobSource {
		n := 0
		return schedule.SourceFunc(func() (schedule.Job, bool, error) {
			j, more, err := src.Next()
			if n++; n == 20 {
				j.Algorithm = "no-such-algorithm"
			}
			return j, more, err
		})
	}
	bad, err := g.pass(ctx, nil, -1, &lat)
	if err == nil {
		t.Fatal("a failing job did not fail the pass")
	}
	if bad.attempted == 0 || bad.failed == 0 {
		t.Fatalf("failing job counted as failed %d of %d", bad.failed, bad.attempted)
	}
}

func TestTracedReplayMatchesPipeline(t *testing.T) {
	dir := t.TempDir()
	entries, _, err := writeMatrices(dir, testMatrices, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := corpus.NewPipeline(entries, corpus.PipelineOptions{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := newTracer()
	root := tr.begin("pass", -1)
	rs := newReplaySource(tr, &root, entries, dir, 2, &frontCounts{})
	defer rs.close()
	n := 0
	for {
		want, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		got, gok, gerr := rs.next()
		if gerr != nil || gok != ok {
			t.Fatalf("replay: ok=%v err=%v, pipeline ok=%v", gok, gerr, ok)
		}
		if !ok {
			break
		}
		if got.Name != want.Name || got.Tree.Digest() != want.Tree.Digest() {
			t.Errorf("replayed %s differs from pipeline %s", got.Name, want.Name)
		}
		n++
	}
	if n != len(testMatrices)*len(corpus.OrderingNames())*len(relaxLevels) {
		t.Errorf("%d instances", n)
	}
	tr.end(root)
	b := busy(tr.spans())
	for _, name := range []string{"sparse.parse", "ordering.amd", "ordering.nd", "symbolic.counts", "symbolic.amalgamate"} {
		if b[name] <= 0 {
			t.Errorf("no %s span", name)
		}
	}
}

func TestSelfTimesAndInferredParents(t *testing.T) {
	sp := []span{
		{Name: "pass", Parent: -1, Start: 0, End: 100},
		{Name: "schedule.backend.run", Parent: 0, Start: 10, End: 60},
		{Name: "schedule.backend.run", Parent: 0, Start: 40, End: 90},
		{Name: "store.get", Parent: -1, Start: 45, End: 55}, // inside both: the later one
		{Name: "store.put", Parent: -1, Start: 20, End: 30}, // inside the first only
		{Name: "store.get", Parent: -1, Start: 95, End: 99}, // inside none
	}
	inferParents(sp, "store.", "schedule.backend.run")
	if sp[3].Parent != 2 || sp[4].Parent != 1 || sp[5].Parent != -1 {
		t.Fatalf("inferred parents %d %d %d, want 2 1 -1", sp[3].Parent, sp[4].Parent, sp[5].Parent)
	}
	self := selfTimes(sp)
	want := []int64{100 - 80, 50 - 10, 50 - 10, 10, 10, 4}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %d, want %d", i, self[i], want[i])
		}
	}
}
