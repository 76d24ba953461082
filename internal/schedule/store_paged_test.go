package schedule_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/store"
)

// edgeRows are rows at the edges of the wire form: a sub-nanosecond
// Seconds, a MinIO row with every counter set, and the zero row.
var edgeRows = []schedule.Row{
	{Instance: "a", Algorithm: "minmem", Kind: "minmemory", Memory: 42, Seconds: 0.125},
	{Instance: "b", Algorithm: "evict-best-3", Kind: "minio", Budget: 9, IO: 17, Writes: 3, Seconds: 1e-9},
	{},
}

// The paged store round-trips rows exactly: cold fill, fully warm
// bit-identical replay across a reopen (edge rows included), zero
// algorithm runs when warm.
func TestPagedStoreColdWarm(t *testing.T) {
	jobs := gridJobs(t)
	path := filepath.Join(t.TempDir(), "rows.paged")
	opt := schedule.StoreOptions{}

	rs, err := schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := schedule.NewCached(schedule.Local{}, rs).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range edgeRows {
		if err := rs.Put(fmt.Sprintf("edge-%d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	rs, err = schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Len() != len(jobs)+len(edgeRows) {
		t.Fatalf("reopened store holds %d rows, want %d", rs.Len(), len(jobs)+len(edgeRows))
	}
	for i, want := range edgeRows {
		got, ok := rs.Get(fmt.Sprintf("edge-%d", i))
		if !ok {
			t.Fatalf("edge row %d missing after reopen", i)
		}
		if got != want {
			t.Fatalf("edge row %d diverged across reopen: %+v, want %+v", i, got, want)
		}
	}
	counting := &countingBackend{inner: schedule.Local{}}
	warm, err := schedule.NewCached(counting, rs).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("row %d not replayed bit-identically from disk: %+v vs %+v", i, warm[i], cold[i])
		}
	}
	if got := counting.jobs.Load(); got != 0 {
		t.Fatalf("warm disk run executed %d algorithm runs, want 0", got)
	}
}

// Crash the paged store at sampled byte boundaries of its real write
// history (every engine sync point plus a stride of raw offsets): each torn
// image must reopen, replay what survived, recompute only the rest, and —
// once the close was acknowledged — be fully warm.
func TestPagedStoreCrashRecovery(t *testing.T) {
	jobs := gridJobs(t)
	b := store.NewMemBacking()
	opt := schedule.StoreOptions{}
	ps, err := schedule.OpenPagedStoreBacking(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := schedule.NewCached(schedule.Local{}, ps).Run(context.Background(), jobs, schedule.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	total := b.JournalBytes()
	syncs := b.SyncPoints()
	if total == 0 || len(syncs) == 0 {
		t.Fatalf("workload journaled %d bytes, %d sync points", total, len(syncs))
	}
	cuts := map[int64]bool{0: true, total: true}
	for _, s := range syncs {
		cuts[s] = true
		if s > 0 {
			cuts[s-1] = true // one byte short of durable: previous commit wins
		}
	}
	for c := int64(0); c < total; c += 1 + total/40 {
		cuts[c] = true
	}
	for cut := range cuts {
		img := b.Snapshot(cut)
		re, err := schedule.OpenPagedStoreBacking(img, opt)
		if err != nil {
			if cut >= syncs[0] {
				t.Fatalf("cut %d: reopen failed after the store was initialized: %v", cut, err)
			}
			continue
		}
		counting := &countingBackend{inner: schedule.Local{}}
		rows, err := schedule.NewCached(counting, re).Run(context.Background(), jobs, schedule.BatchOptions{})
		if err != nil {
			t.Fatalf("cut %d: recovery run: %v", cut, err)
		}
		sameRowsNoTime(t, cold, rows, fmt.Sprintf("cut %d", cut))
		if cut >= total && counting.jobs.Load() != 0 {
			t.Fatalf("fully acknowledged image re-ran %d jobs, want 0", counting.jobs.Load())
		}
		if err := re.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// Cache files of the removed row store formats are refused by name and
// left byte-identical: the error names the format and the paged store
// that replaces it, so the fix (a new -cache path) is obvious.
func TestPagedStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	jsonlLine := `{"key":"k","row":{"instance":"i","algorithm":"minmem","kind":"minmemory","budget":0,"memory":3,"io":0,"writes":0,"seconds":0.5}}` + "\n"
	// One binary store entry: uvarint payload length, then the payload
	// (uvarint key length, key, binary row).
	payload := schedule.AppendRow([]byte{1, 'k'}, schedule.Row{Instance: "i"})
	binaryEntry := append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	for _, tc := range []struct {
		name, format string
		data         []byte
	}{
		{"short.jsonl", "JSONL", []byte(jsonlLine)},
		// Past the engine's minimum page size, so the open gets as far as
		// reading (and rejecting) the meta slots.
		{"long.jsonl", "JSONL", []byte(strings.Repeat(jsonlLine, 20))},
		{"rows.bin", "binary", append([]byte{schedule.WireMagic, 'S', 1}, binaryEntry...)},
		{"header.bin", "binary", []byte{schedule.WireMagic, 'S'}},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := schedule.OpenPagedStoreWith(path, schedule.StoreOptions{})
		if err == nil {
			t.Fatalf("%s: paged open of a %s row store must fail", tc.name, tc.format)
		}
		for _, want := range []string{"is a " + tc.format + " row store", "removed", "-cache", "paged store"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not say %q", tc.name, err, want)
			}
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, tc.data) {
			t.Errorf("%s: rejected file was modified (%d bytes, had %d)", tc.name, len(got), len(tc.data))
		}
	}

	// Bytes of no known format are refused too, without the removed-format
	// hint, and equally left alone.
	garbage := bytes.Repeat([]byte("not a store "), 40)
	path := filepath.Join(dir, "garbage")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := schedule.OpenPagedStoreWith(path, schedule.StoreOptions{}); err == nil || strings.Contains(err.Error(), "removed") {
		t.Fatalf("garbage file: got %v, want a plain open error", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, garbage) {
		t.Error("rejected garbage file was modified")
	}
}

// A full cache file as the removed binary store wrote it (header, then a
// run of length-prefixed entries) stays foreign to the paged store: every
// open path refuses it by name, and repeated opens neither heal nor
// truncate it, so a fleet can still roll back to a build that reads it.
func TestBinaryStoreRejectsForeignFile(t *testing.T) {
	image := []byte{schedule.WireMagic, 'S', 1}
	for i, r := range edgeRows {
		key := fmt.Sprintf("key-%d", i)
		payload := schedule.AppendRow(append(binary.AppendUvarint(nil, uint64(len(key))), key...), r)
		image = append(binary.AppendUvarint(image, uint64(len(payload))), payload...)
	}
	// Past the engine's minimum page size, so the open could get as far as
	// the meta slots if the header were not recognised first.
	for len(image) < 1024 {
		image = append(image, image[3:]...)
	}
	path := filepath.Join(t.TempDir(), "rows.bin")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	opens := []struct {
		name string
		open func() (*schedule.PagedStore, error)
	}{
		{"OpenPagedStore", func() (*schedule.PagedStore, error) { return schedule.OpenPagedStore(path) }},
		{"OpenPagedStoreWith", func() (*schedule.PagedStore, error) {
			return schedule.OpenPagedStoreWith(path, schedule.StoreOptions{})
		}},
		{"OpenPagedStoreWith bounded", func() (*schedule.PagedStore, error) {
			return schedule.OpenPagedStoreWith(path, schedule.StoreOptions{MaxEntries: 2})
		}},
	}
	for round := 0; round < 2; round++ {
		for _, o := range opens {
			s, err := o.open()
			if err == nil {
				s.Close()
				t.Fatalf("%s (round %d): paged open of a binary row store must fail", o.name, round)
			}
			if !strings.Contains(err.Error(), "is a binary row store") || !strings.Contains(err.Error(), "paged store") {
				t.Errorf("%s (round %d): error %q does not name the binary format and the paged store", o.name, round, err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, image) {
				t.Fatalf("%s (round %d): rejected open changed the binary file (%d bytes, had %d, %v)", o.name, round, len(got), len(image), rerr)
			}
		}
	}
}

// Every row store is the same store: identical puts into MemStore and
// PagedStore produce identical gets, the paged one across a close/reopen
// cycle, for every edge row.
func TestRowStoreFormatsEquivalent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.paged")
	mem := schedule.NewMemStore()
	ps, err := schedule.OpenPagedStoreWith(path, schedule.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []schedule.Store{mem, ps} {
		for i, r := range edgeRows {
			if err := s.Put(fmt.Sprintf("key-%d", i), r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps, err = schedule.OpenPagedStoreWith(path, schedule.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if mem.Len() != ps.Len() {
		t.Fatalf("MemStore holds %d rows, reopened PagedStore %d", mem.Len(), ps.Len())
	}
	for i, want := range edgeRows {
		key := fmt.Sprintf("key-%d", i)
		for name, s := range map[string]schedule.Store{"MemStore": mem, "PagedStore": ps} {
			got, ok := s.Get(key)
			if !ok {
				t.Fatalf("%s missing from the %s", key, name)
			}
			if got != want {
				t.Fatalf("%s diverged in the %s: %+v, want %+v", key, name, got, want)
			}
		}
	}
}

// Bounded semantics match MemStore's, and recency survives a reopen via
// in-place stamp rewrites, not a close-time file rewrite.
func TestPagedStoreBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.paged")
	opt := schedule.StoreOptions{MaxEntries: 4}
	rs, err := schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := rs.Put(fmt.Sprintf("key-%d", i), schedule.Row{Instance: fmt.Sprintf("i%d", i), Memory: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Len() != 4 {
		t.Fatalf("bounded store holds %d rows, want 4", rs.Len())
	}
	if rs.Evictions() != 6 {
		t.Fatalf("bounded store evicted %d rows, want 6", rs.Evictions())
	}
	// Bump key-6 so the next eviction after a reopen drops key-7 instead.
	if _, ok := rs.Get("key-6"); !ok {
		t.Fatal("key-6 missing before close")
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err = schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Len() != 4 {
		t.Fatalf("reopened bounded store holds %d rows, want 4", rs.Len())
	}
	if err := rs.Put("key-10", schedule.Row{Instance: "i10"}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"key-6", "key-8", "key-9", "key-10"} {
		if _, ok := rs.Get(key); !ok {
			t.Errorf("%s missing after reopen", key)
		}
	}
	if _, ok := rs.Get("key-7"); ok {
		t.Error("key-7 survived although key-6 was more recently used")
	}
}

// Eviction reclaims pages in place: churning far more rows than the bound
// through a bounded paged store must not grow the file, and the resident
// page cache stays within the engine's bound the whole time.
func TestPagedStoreEvictionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.paged")
	opt := schedule.StoreOptions{MaxEntries: 64}
	rs, err := schedule.OpenPagedStoreWith(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ps := rs
	row := schedule.Row{Instance: "inst", Algorithm: "minmem", Memory: 7, IO: 9}
	var warm int
	for i := 0; i < 64*20; i++ {
		row.Budget = int64(i)
		if err := rs.Put(fmt.Sprintf("key-%d", i), row); err != nil {
			t.Fatal(err)
		}
		if i == 64*2 {
			warm = ps.StoreStats().FilePages
		}
	}
	if rs.Len() != 64 {
		t.Fatalf("bounded store holds %d rows, want 64", rs.Len())
	}
	s := ps.StoreStats()
	if s.FilePages > warm*4 {
		t.Fatalf("file grew from %d to %d pages under eviction churn: eviction is not reclaiming in place", warm, s.FilePages)
	}
	if s.CachedPages > 512 {
		t.Fatalf("resident page cache holds %d pages, beyond the 512-page bound", s.CachedPages)
	}
}

// FuzzOpenPagedRowStore opens arbitrary file bytes as a paged row store.
// Every input either fails to open and leaves the file byte-identical, or
// yields a store whose Get, Put and Close do not panic. The corpus seeds
// cover the removed JSONL and binary formats and real paged images.
func FuzzOpenPagedRowStore(f *testing.F) {
	f.Add([]byte(`{"key":"k","row":{"instance":"i","memory":3}}`+"\n"), uint8(0))
	f.Add(append([]byte{schedule.WireMagic, 'S', 1, 4, 1, 'k'}, schedule.AppendRow(nil, schedule.Row{})...), uint8(0))
	f.Add([]byte{}, uint8(2))
	dir := f.TempDir()
	for i, max := range []int{0, 2} {
		path := filepath.Join(dir, fmt.Sprintf("seed-%d.paged", i))
		rs, err := schedule.OpenPagedStoreWith(path, schedule.StoreOptions{MaxEntries: max})
		if err != nil {
			f.Fatal(err)
		}
		for k, r := range edgeRows {
			if err := rs.Put(fmt.Sprintf("edge-%d", k), r); err != nil {
				f.Fatal(err)
			}
		}
		if err := rs.Close(); err != nil {
			f.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img, uint8(max))
	}
	// Inputs run one at a time per worker process, so one path is reused.
	path := filepath.Join(dir, "rows")
	f.Fuzz(func(t *testing.T, data []byte, max uint8) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := schedule.OpenPagedStoreWith(path, schedule.StoreOptions{MaxEntries: int(max % 4)})
		if err != nil {
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("failed open (%v) modified the file: %d bytes, had %d", err, len(got), len(data))
			}
			return
		}
		for k := range edgeRows {
			rs.Get(fmt.Sprintf("edge-%d", k))
		}
		rs.Put("fuzz", edgeRows[1])
		rs.Get("fuzz")
		rs.Len()
		rs.Evictions()
		rs.Close()
	})
}
