package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tree"
)

const (
	serveTenants = 2
	// serveTrees is each tenant's corpus size; a tenant's batches cycle
	// through its trees.
	serveTrees = 48
	// serveBatches is how many batches each tenant sends per pass.
	serveBatches = 60
	// serveNewJobs of each batch's jobs are policy runs at a budget never
	// sent before: a solve plus a store write. The other jobs repeat rows
	// warmed in setup: store reads.
	serveNewJobs = 4
)

// serveMixed is two closed-loop tenants sending by-digest JSON batches over
// loopback to an in-process server running Cached(Local) over a paged row
// store. A batch is one tree's grid: the MinMemory trio and policy runs at
// warmed budgets, plus serveNewJobs policy runs at a fresh budget.
type serveMixed struct {
	dir        string
	workers    int
	instrument bool // install the tracing wrappers (traced runs only)

	setups    int
	ln        net.Listener
	srv       *http.Server
	served    chan error
	transport *http.Transport
	rows      *schedule.PagedStore
	cache     *schedule.Cached
	tenants   []*serveTenant

	// Tracing: the wrappers read tr on every call, so one server serves
	// both the traced and the untraced passes of a traced run.
	tr       atomic.Pointer[tracer]
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
}

// serveTenant is one tenant's corpus, client and budget counters, and the
// log of every job it sent with the row it got back, which verify checks
// after the timed phase. The log is a file, so checking every row costs the
// benchmark no memory that grows with the server's throughput.
type serveTenant struct {
	name    string
	client  *service.Client
	trees   []serveTree
	next    int
	logFile *os.File
	log     *bufio.Writer
	scratch []byte
	rowBuf  []byte
}

// serveTree is a corpus tree with the minmem traversal its policy jobs
// replay and its warmed budgets.
type serveTree struct {
	name    string
	tree    *tree.Tree
	index   int
	order   []int
	lo, mid int64
	fresh   int64 // fresh budgets handed out so far
}

func (s *serveMixed) setup(seed int64) (map[string]any, error) {
	s.setups++
	path := filepath.Join(s.dir, fmt.Sprintf("rows-%d.db", s.setups))
	rows, err := schedule.OpenPagedStore(path)
	if err != nil {
		return nil, err
	}
	s.rows = rows
	var store schedule.RowStore = rows
	if s.instrument {
		store = &tracedStore{RowStore: rows, tr: &s.tr}
	}
	s.cache = schedule.NewCached(schedule.Local{}, store)
	var backend schedule.Backend = s.cache
	if s.instrument {
		backend = &tracedBackend{Backend: s.cache, tr: &s.tr}
	}
	var handler http.Handler = service.NewServerWith(service.ServerOptions{
		Backend: backend, Workers: s.workers, Concurrency: s.workers,
		Store: store, Cache: s.cache, Rows: rows,
	}).Handler()
	if s.instrument {
		handler = &tracedHandler{next: handler, s: s}
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.srv = &http.Server{Handler: handler}
	s.served = make(chan error, 1)
	go func(srv *http.Server, ln net.Listener, done chan<- error) { done <- srv.Serve(ln) }(s.srv, s.ln, s.served)

	s.transport = &http.Transport{MaxIdleConnsPerHost: serveTenants, DisableCompression: true}
	var rt http.RoundTripper = s.transport
	if s.instrument {
		rt = &tracedTransport{next: s.transport, tr: &s.tr}
	}
	httpClient := &http.Client{Transport: rt}
	base := "http://" + s.ln.Addr().String()
	minmem, err := schedule.Lookup(orderBy)
	if err != nil {
		return nil, err
	}
	s.tenants = nil
	var digests []tree.Digest
	nodes := 0
	ctx := context.Background()
	for ti := 0; ti < serveTenants; ti++ {
		ten := &serveTenant{name: fmt.Sprintf("tenant-%d", ti)}
		if ten.logFile, err = os.Create(filepath.Join(s.dir, fmt.Sprintf("served-%d-%d.log", s.setups, ti))); err != nil {
			return nil, err
		}
		ten.log = bufio.NewWriter(ten.logFile)
		ten.client = service.NewClient(base, httpClient)
		ten.client.Tenant = ten.name
		ten.client.ByDigest = true
		var trees []*tree.Tree
		for i := 0; i < serveTrees; i++ {
			rng := subRand(seed, 4, int64(ti), int64(i))
			tr, err := tree.Random(rng, tree.RandomOptions{Nodes: 200 + rng.Intn(200), MaxF: 5000, MaxN: 1000, Attach: tree.AttachKind(i % 3)})
			if err != nil {
				return nil, err
			}
			out, err := minmem.Run(schedule.Request{Tree: tr})
			if err != nil {
				return nil, err
			}
			lo := tr.MaxMemReq()
			ten.trees = append(ten.trees, serveTree{
				name: fmt.Sprintf("%s/t%d", ten.name, i), tree: tr, index: i, order: out.Order,
				lo: lo, mid: (lo + out.Memory) / 2,
			})
			trees = append(trees, tr)
			digests = append(digests, tr.Digest())
			nodes += tr.Len()
		}
		if _, err := ten.client.UploadTrees(ctx, trees); err != nil {
			return nil, fmt.Errorf("%s: upload: %w", ten.name, err)
		}
		// Warm the hot set: every tree's repeated jobs, once.
		var warm []schedule.Job
		for i := range ten.trees {
			warm = append(warm, ten.trees[i].warmJobs()...)
		}
		if _, err := ten.client.Run(ctx, warm, schedule.BatchOptions{}); err != nil {
			return nil, fmt.Errorf("%s: warm: %w", ten.name, err)
		}
		s.tenants = append(s.tenants, ten)
	}
	return map[string]any{
		"tenants": serveTenants, "trees": len(digests), "tree_nodes": nodes,
		"tree_digests_sha256": digestList(digests),
		"jobs_per_batch":      len(s.tenants[0].trees[0].warmJobs()) + serveNewJobs,
		"batches_per_pass":    serveTenants * serveBatches,
	}, nil
}

// warmJobs are the tree's repeated jobs: the MinMemory trio, every policy
// at the lower budget and the first three policies at the midpoint.
func (st *serveTree) warmJobs() []schedule.Job {
	var jobs []schedule.Job
	for _, a := range minMemoryAlgos {
		jobs = append(jobs, schedule.Job{Instance: st.name, Tree: st.tree, Algorithm: a})
	}
	pol := schedule.EvictionPolicyNames()
	for _, p := range pol {
		jobs = append(jobs, schedule.Job{Instance: st.name, Tree: st.tree, Algorithm: p, Order: st.order, Memory: st.lo})
	}
	for _, p := range pol[:3] {
		jobs = append(jobs, schedule.Job{Instance: st.name, Tree: st.tree, Algorithm: p, Order: st.order, Memory: st.mid})
	}
	return jobs
}

// batch returns the tree's next batch: its warmed jobs plus serveNewJobs
// policy jobs, rotating through the policies, at a budget above lo that no
// earlier batch used (the midpoint is skipped, it is warmed).
func (st *serveTree) batch() []schedule.Job {
	jobs := st.warmJobs()
	st.fresh++
	b := st.lo + st.fresh
	if b >= st.mid {
		b++
	}
	pol := schedule.EvictionPolicyNames()
	for k := 0; k < serveNewJobs; k++ {
		p := pol[(int(st.fresh)+k)%len(pol)]
		jobs = append(jobs, schedule.Job{Instance: st.name, Tree: st.tree, Algorithm: p, Order: st.order, Memory: b})
	}
	return jobs
}

type spanKey struct{}

func (s *serveMixed) pass(ctx context.Context, t *tracer, root int32, lat *latencies) (passStats, error) {
	if s.instrument {
		s.tr.Store(t)
		defer s.tr.Store(nil)
	}
	h0, m0 := s.cache.Counters()
	st0 := s.rows.StoreStats()
	in0, out0 := s.bytesIn.Load(), s.bytesOut.Load()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ps       passStats
		firstErr error
	)
	for _, ten := range s.tenants {
		wg.Add(1)
		go func(ten *serveTenant) {
			defer wg.Done()
			for b := 0; b < serveBatches; b++ {
				st := &ten.trees[ten.next%len(ten.trees)]
				ten.next++
				jobs := st.batch()
				id := t.begin("client.batch", root)
				bctx := context.WithValue(ctx, spanKey{}, id)
				t0 := time.Now()
				rows, err := ten.client.Run(bctx, jobs, schedule.BatchOptions{})
				d := time.Since(t0)
				t.end(id)
				mu.Lock()
				ps.attempted += len(jobs)
				if err != nil {
					ps.failed += len(jobs)
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", ten.name, err)
					}
					mu.Unlock()
					return
				}
				ps.units++
				ps.rows += len(rows)
				mu.Unlock()
				if lat != nil {
					lat.add(d)
				}
				if err := ten.record(st, jobs, rows); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(ten)
	}
	wg.Wait()
	h1, m1 := s.cache.Counters()
	st1 := s.rows.StoreStats()
	ps.layer = map[string]float64{
		"store.commits":       float64(st1.Commits - st0.Commits),
		"store.pages_read":    float64(st1.PagesRead - st0.PagesRead),
		"store.pages_written": float64(st1.PagesWritten - st0.PagesWritten),
		"service.bytes_in":    float64(s.bytesIn.Load() - in0),
		"service.bytes_out":   float64(s.bytesOut.Load() - out0),
	}
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		ps.layer["schedule.cache.hit_ratio"] = float64(h1-h0) / float64(n)
	}
	// Each pass sends fresh budgets, so the served rows differ from pass
	// to pass; verify checks them against Local instead of a digest.
	ps.digest = "served"
	return ps, firstErr
}

// servedAlgos indexes the algorithm names a batch can hold, for the log.
var servedAlgos = append(append([]string(nil), minMemoryAlgos...), schedule.EvictionPolicyNames()...)

// record logs each job of a served batch — its tree, algorithm and budget —
// with the row the server returned for it.
func (ten *serveTenant) record(st *serveTree, jobs []schedule.Job, rows []schedule.Row) error {
	for i, j := range jobs {
		alg := slices.Index(servedAlgos, j.Algorithm)
		b := binary.AppendUvarint(ten.scratch[:0], uint64(st.index))
		b = binary.AppendUvarint(b, uint64(alg))
		b = binary.AppendVarint(b, j.Memory)
		ten.rowBuf = schedule.AppendRow(ten.rowBuf[:0], rows[i])
		b = binary.AppendUvarint(b, uint64(len(ten.rowBuf)))
		ten.scratch = append(b, ten.rowBuf...)
		if _, err := ten.log.Write(ten.scratch); err != nil {
			return err
		}
	}
	return nil
}

// replay reads the log back as the jobs sent and the rows served.
func (ten *serveTenant) replay() ([]schedule.Job, []schedule.Row, error) {
	if err := ten.log.Flush(); err != nil {
		return nil, nil, err
	}
	if _, err := ten.logFile.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	br := bufio.NewReader(ten.logFile)
	var (
		jobs []schedule.Job
		rows []schedule.Row
	)
	for {
		ti, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		}
		alg, err2 := binary.ReadUvarint(br)
		mem, err3 := binary.ReadVarint(br)
		n, err4 := binary.ReadUvarint(br)
		if err := errors.Join(err, err2, err3, err4); err != nil {
			return nil, nil, fmt.Errorf("%s: served log: %w", ten.name, err)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, err
		}
		row, _, err := schedule.DecodeRow(buf)
		if err != nil {
			return nil, nil, err
		}
		st := &ten.trees[ti]
		j := schedule.Job{Instance: st.name, Tree: st.tree, Algorithm: servedAlgos[alg], Memory: mem}
		if alg >= uint64(len(minMemoryAlgos)) {
			j.Order = st.order
		}
		jobs = append(jobs, j)
		rows = append(rows, row)
	}
	return jobs, rows, nil
}

// verify recomputes every distinct served job on schedule.Local and
// checks each served row equals the local row, Seconds aside.
func (s *serveMixed) verify(ctx context.Context) (int, int, error) {
	type key struct {
		tree *tree.Tree
		alg  string
		mem  int64
	}
	index := map[key]int{}
	var distinct, jobs []schedule.Job
	var rows []schedule.Row
	for _, ten := range s.tenants {
		j, r, err := ten.replay()
		if err != nil {
			return 0, 0, err
		}
		jobs, rows = append(jobs, j...), append(rows, r...)
	}
	for _, j := range jobs {
		k := key{j.Tree, j.Algorithm, j.Memory}
		if _, ok := index[k]; !ok {
			index[k] = len(distinct)
			distinct = append(distinct, j)
		}
	}
	want, err := schedule.Local{}.Run(ctx, distinct, schedule.BatchOptions{Workers: s.workers})
	if err != nil {
		return 0, 0, err
	}
	failed := 0
	for i, j := range jobs {
		got, w := rows[i], want[index[key{j.Tree, j.Algorithm, j.Memory}]]
		got.Seconds, w.Seconds = 0, 0
		if got != w {
			failed++
		}
	}
	return len(jobs), failed, nil
}

func (s *serveMixed) close() error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.transport.CloseIdleConnections()
	if cerr := s.rows.Close(); err == nil {
		err = cerr
	}
	os.Remove(filepath.Join(s.dir, fmt.Sprintf("rows-%d.db", s.setups)))
	for _, ten := range s.tenants {
		ten.logFile.Close()
		os.Remove(ten.logFile.Name())
	}
	s.srv = nil
	return err
}

// tracedStore records a span per row-store call. The store interface
// carries no context, so the caller span is inferred from time containment.
type tracedStore struct {
	schedule.RowStore
	tr *atomic.Pointer[tracer]
}

func (ts *tracedStore) Get(key string) (schedule.Row, bool) {
	t := ts.tr.Load()
	id := t.begin("store.get", -1)
	defer t.end(id)
	return ts.RowStore.Get(key)
}

func (ts *tracedStore) Put(key string, row schedule.Row) error {
	t := ts.tr.Load()
	id := t.begin("store.put", -1)
	defer t.end(id)
	return ts.RowStore.Put(key, row)
}

// tracedBackend records a span per batch evaluation, child of the handler
// span that the request context carries.
type tracedBackend struct {
	schedule.Backend
	tr *atomic.Pointer[tracer]
}

func (tb *tracedBackend) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	t := tb.tr.Load()
	parent, _ := ctx.Value(spanKey{}).(int32)
	if t == nil {
		parent = -1
	}
	id := t.begin("schedule.backend.run", parent)
	defer t.end(id)
	return tb.Backend.Run(ctx, jobs, opt)
}

// spanHeader carries the client's span ID to the server's handler span.
const spanHeader = "X-Perfbench-Span"

// tracedTransport records the client's round trip to the response headers
// and passes its span ID to the server in spanHeader.
type tracedTransport struct {
	next http.RoundTripper
	tr   *atomic.Pointer[tracer]
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t := tt.tr.Load()
	if t == nil {
		return tt.next.RoundTrip(r)
	}
	parent, ok := r.Context().Value(spanKey{}).(int32)
	if !ok {
		parent = -1
	}
	id := t.begin("client.roundtrip", parent)
	defer t.end(id)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(int(id)))
	return tt.next.RoundTrip(r)
}

// tracedHandler records a span per request, counts the bytes read and
// written, and hands its span ID to the backend through the context.
type tracedHandler struct {
	next http.Handler
	s    *serveMixed
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := th.s.tr.Load()
	if t == nil {
		th.next.ServeHTTP(w, r)
		return
	}
	parent := int32(-1)
	if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		parent = int32(v)
	}
	id := t.begin("service.handler", parent)
	defer t.end(id)
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	th.next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
	th.s.bytesIn.Add(body.n)
	th.s.bytesOut.Add(cw.n)
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingWriter counts response bytes; it keeps http.Flusher, which the
// server's streaming batch responses rely on.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
