// Command perfbench is the repository's end-to-end benchmark: it drives the
// public entry points — corpus.Pipeline, schedule.GridSource on
// schedule.Local, and service.Client against service.NewServerWith — on
// four seeded workloads, checks every output, and prints the metrics named
// in BENCHMARK.json. With -trace 1 it instead replays the same work with
// spans around each layer's public calls and prints the per-layer metrics.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	_ "repro/internal/minio"
	_ "repro/internal/traversal"
)

// A run builds its inputs at least minSetupReps times, and more (up to
// maxSetupReps) while the builds so far took less than setupBudget: the
// median of more builds steadies setup_s where one build takes
// milliseconds and disk or scheduler noise is a large share of it.
const (
	minSetupReps = 3
	maxSetupReps = 11
	setupBudget  = 3 * time.Second
)

// passStats is what one pass over a workload's inputs produced.
type passStats struct {
	units     int // trees built, trees whose grid completed, or batches served
	rows      int // records delivered to the sink
	attempted int
	failed    int
	// digest identifies the pass's output; every pass of a run, traced or
	// not, must produce the same one.
	digest string
	// layer holds per-layer values the pass measured without spans (per-job
	// seconds grouped by algorithm, store and cache counters).
	layer map[string]float64
	// hidden is busy time inside the program that no span of the
	// benchmark covers but the program reports itself (row Seconds).
	hidden float64
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs from the seed; it may be called again after
	// close and must then build them afresh.
	setup(seed int64) (provenance map[string]any, err error)
	// pass processes the inputs once. t is nil for an untraced pass; lat,
	// when non-nil, receives the per-batch latencies.
	pass(ctx context.Context, t *tracer, root int32, lat *latencies) (passStats, error)
	// verify runs the output checks that are too costly for the timed
	// phase.
	verify(ctx context.Context) (attempted, failed int, err error)
	close() error
}

func newWorkload(name, dir string, workers int, traced bool) (workload, error) {
	switch name {
	case "build-trees":
		return &buildTrees{dir: dir, workers: workers}, nil
	case "matrix-grid":
		return &gridBench{dir: dir, workers: workers, matrices: matrixGridMatrices}, nil
	case "random-weights":
		return &gridBench{dir: dir, workers: workers, randomWeights: true}, nil
	case "serve-mixed":
		return &serveMixed{dir: dir, workers: workers, instrument: traced}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want build-trees, matrix-grid, random-weights or serve-mixed)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "build-trees | matrix-grid | random-weights | serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	workers := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(workers)

	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	wl, err := newWorkload(*name, dir, workers, *trace == 1)
	if err != nil {
		return 2, err
	}
	defer wl.close()

	ctx := context.Background()
	var report *runReport
	if *trace == 1 {
		report, err = tracedRun(ctx, wl, *name, *seed, *seconds, workers)
	} else {
		report, err = timedRun(ctx, wl, *seed, *seconds)
	}
	if err != nil {
		return 1, err
	}
	if err := wl.close(); err != nil {
		return 1, err
	}
	res := report.result
	res.Correct = res.Failed == 0
	report.prov["workload"] = *name
	report.prov["seed"] = *seed
	report.prov["env"] = environment(workers)
	prov, err := json.Marshal(map[string]any{"provenance": report.prov})
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%s\n", prov)
	for _, l := range report.notes {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "failed_frac %.6g (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "%s\n", out)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d outputs failed their checks", res.Failed, res.Attempted)
	}
	return 0, nil
}

// runReport is a run's result plus what the human-readable lines say.
type runReport struct {
	result result
	prov   map[string]any
	notes  []string
}

// setupMedian builds the inputs several times and returns the median time;
// the inputs of the last build stay in place.
func setupMedian(wl workload, seed int64) (float64, map[string]any, error) {
	var times []float64
	var prov map[string]any
	var total time.Duration
	for i := 0; i < minSetupReps || (i < maxSetupReps && total < setupBudget); i++ {
		if i > 0 {
			if err := wl.close(); err != nil {
				return 0, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		p, err := wl.setup(seed)
		if err != nil {
			return 0, nil, fmt.Errorf("setup: %w", err)
		}
		total += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
		prov = p
	}
	return median(times), prov, nil
}

// timedRun measures the end-to-end metrics: whole passes until the time is
// up, tracing off. Rates and the peak heap are medians over passes, so a
// pass that a burst of outside load slowed does not move them.
func timedRun(ctx context.Context, wl workload, seed int64, seconds float64) (*runReport, error) {
	setupS, prov, err := setupMedian(wl, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var (
		lat              latencies
		wall             float64
		rowRates         []float64
		treeRates        []float64
		attempted, fails int
		passes           int
		digest           string
		peaks            []float64
		walls            []float64
	)
	if tw, ok := wl.(interface{ tailWindow() int }); ok {
		lat.window = tw.tailWindow()
	}
	heap := startHeapSampler(5 * time.Millisecond)
	for passes == 0 || wall < seconds {
		heap.take()
		t0 := time.Now()
		ps, err := wl.pass(ctx, nil, -1, &lat)
		dt := time.Since(t0).Seconds()
		wall += dt
		peaks = append(peaks, heap.take())
		walls = append(walls, dt)
		passes++
		attempted += ps.attempted
		fails += ps.failed
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", passes, err)
			break
		}
		if digest == "" {
			digest = ps.digest
		} else if ps.digest != digest {
			fails++ // the same inputs must give the same output every pass
		}
		rowRates = append(rowRates, float64(ps.rows)/dt)
		treeRates = append(treeRates, float64(ps.units)/dt)
	}
	heap.Stop()
	va, vf, err := wl.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	attempted += va
	fails += vf
	p50, tailMs, tailDesc, err := lat.summary()
	if err != nil {
		if fails == 0 {
			return nil, err
		}
		// A failed pass can leave too few samples for a tail; the result
		// still reports the failures.
		tailDesc = err.Error()
	}
	prov["passes"] = passes
	prov["output_digest"] = digest
	return &runReport{
		result: result{
			Attempted: attempted,
			Failed:    fails,
			Metrics: map[string]metric{
				"setup_s":       {setupS, "s"},
				"rows_per_s":    {median(rowRates), "1/s"},
				"trees_per_s":   {median(treeRates), "1/s"},
				"batch_p50_ms":  {p50, "ms"},
				"batch_tail_ms": {tailMs, "ms"},
				"peak_heap_mb":  {median(peaks), "MiB"},
			},
		},
		prov: prov,
		notes: []string{fmt.Sprintf("batch_tail_ms is %s; %d passes in %.3f s, each %.3f–%.3f s (median %.3f)",
			tailDesc, passes, wall, slices.Min(walls), slices.Max(walls), median(walls))},
	}, nil
}

// layerMetrics lists every per-layer metric with its unit, in report
// order; a traced run reports each one, zero where the workload does not
// reach the layer.
var layerMetrics = []struct{ name, unit string }{
	{"sparse.parse.busy_s", "s"}, {"sparse.symmetrize.busy_s", "s"}, {"sparse.permute.busy_s", "s"},
	{"ordering.amd.busy_s", "s"}, {"ordering.nd.busy_s", "s"}, {"ordering.rcm.busy_s", "s"},
	{"symbolic.etree.busy_s", "s"}, {"symbolic.counts.busy_s", "s"}, {"symbolic.amalgamate.busy_s", "s"},
	{"tree.encode.busy_s", "s"},
	{"sparse.alloc_mb", "MiB"}, {"ordering.alloc_mb", "MiB"}, {"symbolic.alloc_mb", "MiB"},
	{"symbolic.factor_nnz", "count"}, {"tree.nodes", "count"},
	{"corpus.wait_s", "s"},
	{"schedule.source.busy_s", "s"}, {"schedule.worker_idle_frac", "fraction"}, {"schedule.sink.busy_s", "s"},
	{"hillvalley.liu.busy_s", "s"}, {"hillvalley.liu.max_job_s", "s"},
	{"traversal.minmem.busy_s", "s"}, {"traversal.postorder.busy_s", "s"}, {"traversal.minmem.max_job_s", "s"},
	{"schedule.policy.busy_s", "s"},
	{"schedule.cache.hit_ratio", "fraction"},
	{"store.get.calls", "count"}, {"store.get.busy_s", "s"}, {"store.put.calls", "count"}, {"store.put.busy_s", "s"},
	{"store.commits", "count"}, {"store.pages_read", "count"}, {"store.pages_written", "count"},
	{"service.handler.busy_s", "s"}, {"service.overhead_s", "s"}, {"service.bytes_in", "bytes"}, {"service.bytes_out", "bytes"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cpu_s", "s"},
	{"trace.overhead_frac", "fraction"}, {"trace.unattributed_frac", "fraction"},
}

// spanMetrics maps span names to the busy-time metrics they sum into.
var spanMetrics = map[string]string{
	"sparse.parse": "sparse.parse.busy_s", "sparse.symmetrize": "sparse.symmetrize.busy_s",
	"sparse.permute": "sparse.permute.busy_s", "ordering.amd": "ordering.amd.busy_s",
	"ordering.nd": "ordering.nd.busy_s", "ordering.rcm": "ordering.rcm.busy_s",
	"symbolic.etree": "symbolic.etree.busy_s", "symbolic.counts": "symbolic.counts.busy_s",
	"symbolic.amalgamate": "symbolic.amalgamate.busy_s", "tree.encode": "tree.encode.busy_s",
	"corpus.next": "corpus.wait_s", "schedule.source.next": "schedule.source.busy_s",
	"schedule.sink.push": "schedule.sink.busy_s", "store.get": "store.get.busy_s",
	"store.put": "store.put.busy_s", "service.handler": "service.handler.busy_s",
}

// waitSpans are spans of a consumer blocked on another goroutine's work:
// they count as waiting, not as busy time of any layer.
var waitSpans = map[string]bool{"corpus.next": true}

// tracedRun alternates untraced and traced passes over one set of inputs
// until the time is up, and derives the per-layer metrics, per pass, from
// the traced passes' spans. The untraced passes give the trace overhead and
// the runtime's allocation and GC cost.
func tracedRun(ctx context.Context, wl workload, name string, seed int64, seconds float64, workers int) (*runReport, error) {
	prov, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	values := map[string]float64{}
	if ap, ok := wl.(interface {
		allocPass() (map[string]float64, error)
	}); ok {
		allocs, err := ap.allocPass()
		if err != nil {
			return nil, fmt.Errorf("allocation pass: %w", err)
		}
		for k, v := range allocs {
			values[k] = v
		}
	}
	runID := fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano())
	tr := newTracer()
	var (
		plainWalls, tracedWalls []float64
		rt                      runtimeSample
		layer                   = map[string]float64{}
		hidden                  float64
		attempted, fails        int
		digest                  string
		roots                   []int32
		elapsed                 float64
	)
	for len(tracedWalls) == 0 || elapsed < seconds {
		for _, traced := range []bool{false, true} {
			var (
				t    *tracer
				root int32 = -1
			)
			if traced {
				t = tr
				root = tr.begin("pass", -1)
				roots = append(roots, root)
			}
			r0 := readRuntime()
			t0 := time.Now()
			ps, err := wl.pass(ctx, t, root, nil)
			dt := time.Since(t0).Seconds()
			tr.end(root)
			elapsed += dt
			attempted += ps.attempted
			fails += ps.failed
			if err != nil {
				return nil, fmt.Errorf("pass: %w", err)
			}
			if digest == "" {
				digest = ps.digest
			} else if ps.digest != digest {
				// The traced replay must produce the untraced output byte
				// for byte.
				fails++
				fmt.Fprintf(os.Stderr, "perfbench: traced=%v pass output %s differs from %s\n", traced, ps.digest, digest)
			}
			if !traced {
				d := readRuntime().sub(r0)
				rt.allocBytes += d.allocBytes
				rt.gcCPU += d.gcCPU
				plainWalls = append(plainWalls, dt)
				continue
			}
			tracedWalls = append(tracedWalls, dt)
			for k, v := range ps.layer {
				if strings.HasSuffix(k, "max_job_s") {
					layer[k] = math.Max(layer[k], v)
				} else {
					layer[k] += v
				}
			}
			hidden += ps.hidden
		}
	}
	va, vf, err := wl.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	attempted += va
	fails += vf
	passes := float64(len(tracedWalls))
	sp := tr.spans()
	inferParents(sp, "store.", "schedule.backend.run")
	self := selfTimes(sp)
	spanBusy := busy(sp)
	for n, v := range spanBusy {
		if m, ok := spanMetrics[n]; ok {
			values[m] += v / passes
		}
	}
	if h := spanBusy["service.handler"]; h > 0 {
		values["service.overhead_s"] = (h - spanBusy["schedule.backend.run"]) / passes
	}
	counts := countSpans(sp)
	values["store.get.calls"] = counts["store.get"] / passes
	values["store.put.calls"] = counts["store.put"] / passes
	for k, v := range layer {
		if strings.HasSuffix(k, "max_job_s") {
			values[k] = v
		} else {
			values[k] = v / passes
		}
	}
	values["runtime.alloc_mb"] = rt.allocBytes / (1 << 20) / float64(len(plainWalls))
	values["runtime.gc_cpu_s"] = rt.gcCPU / float64(len(plainWalls))
	values["trace.overhead_frac"] = median(tracedWalls)/median(plainWalls) - 1

	// Attribution: every span's self time except the pass roots', plus the
	// busy time the program reports itself, against the traced wall time on
	// every worker.
	isRoot := map[int32]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	var attributed float64
	for i, s := range sp {
		if s.End >= 0 && !isRoot[int32(i)] && !waitSpans[s.Name] {
			attributed += float64(self[i]) / 1e9
		}
	}
	attributed += hidden
	var tracedWall float64
	for _, w := range tracedWalls {
		tracedWall += w
	}
	values["trace.unattributed_frac"] = math.Max(0, 1-attributed/(tracedWall*float64(workers)))

	// Which layer spent the most time: span self time per layer plus the
	// solver time rows report, per traced pass.
	shares := selfByLayer(sp, self)
	delete(shares, "pass")
	for _, k := range []string{"hillvalley.liu.busy_s", "traversal.minmem.busy_s", "traversal.postorder.busy_s", "schedule.policy.busy_s"} {
		shares[strings.TrimSuffix(k, ".busy_s")] += layer[k]
	}
	notes := []string{layerShares(shares)}

	traceDir := filepath.Join(".bench_build", "perfbench-traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, runID+".jsonl.gz")
	if err := writeSpans(path, runID, sp, self); err != nil {
		return nil, err
	}
	notes = append(notes, fmt.Sprintf("%d spans over %d traced and %d untraced passes written to %s", len(sp), len(tracedWalls), len(plainWalls), path))

	ms := map[string]metric{}
	for _, lm := range layerMetrics {
		ms[lm.name] = metric{values[lm.name], lm.unit}
	}
	prov["output_digest"] = digest
	prov["traced_passes"] = len(tracedWalls)
	return &runReport{result: result{Attempted: attempted, Failed: fails, Metrics: ms}, prov: prov, notes: notes}, nil
}

// layerShares formats each layer's share of the attributed time, largest
// first.
func layerShares(shares map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var all []kv
	var total float64
	for k, v := range shares {
		if v > 0 {
			all = append(all, kv{k, v})
			total += v
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	var parts []string
	for _, e := range all {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", e.k, 100*e.v/total))
	}
	top := "none"
	if len(all) > 0 {
		top = all[0].k
	}
	return fmt.Sprintf("top layer: %s (self time per layer: %s)", top, strings.Join(parts, ", "))
}
