package merge

import (
	"io"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// sliceSource adapts a slice to the Source interface.
type sliceSource struct {
	*record.SliceReader
	closed bool
}

func (s *sliceSource) Close() error {
	s.closed = true
	return nil
}

func srcOf(keys ...int64) *sliceSource {
	return &sliceSource{SliceReader: record.NewSliceReader(record.FromKeys(keys...))}
}

func drain(t *testing.T, s Source[record.Record]) []int64 {
	t.Helper()
	var keys []int64
	for {
		rec, err := s.Read()
		if err == io.EOF {
			return keys
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Key)
	}
}

func TestLoserTreeThreeWayExample(t *testing.T) {
	// The 3-way merge example of §2.1 (Figures 2.1-2.3).
	srcs := []Source[record.Record]{
		srcOf(2, 8, 12, 16),
		srcOf(3, 13, 14, 17),
		srcOf(1, 7, 9, 18),
	}
	lt, err := lessTree(srcs, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, lt)
	want := []int64{1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMergersRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(9)
		var all []int64
		build := func() []Source[record.Record] {
			srcs := make([]Source[record.Record], k)
			// Rebuild identical sources for each merger.
			r2 := rand.New(rand.NewSource(int64(trial)))
			all = all[:0]
			for i := 0; i < k; i++ {
				n := r2.Intn(50)
				keys := make([]int64, n)
				for j := range keys {
					keys[j] = r2.Int63n(1000)
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				all = append(all, keys...)
				srcs[i] = srcOf(keys...)
			}
			return srcs
		}

		lt, err := lessTree(build(), record.Less)
		if err != nil {
			t.Fatal(err)
		}
		gotLT := drain(t, lt)
		lt.Close()

		hm, err := NewHeapMerger(build(), record.Less)
		if err != nil {
			t.Fatal(err)
		}
		gotHM := drain(t, hm)
		hm.Close()

		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		if len(gotLT) != len(all) || len(gotHM) != len(all) {
			t.Fatalf("trial %d: lengths lt=%d hm=%d want=%d", trial, len(gotLT), len(gotHM), len(all))
		}
		for i := range all {
			if gotLT[i] != all[i] {
				t.Fatalf("trial %d: loser tree wrong at %d", trial, i)
			}
			if gotHM[i] != all[i] {
				t.Fatalf("trial %d: heap merger wrong at %d", trial, i)
			}
		}
	}
}

func TestMergersEmptyAndSingle(t *testing.T) {
	lt, err := lessTree(nil, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Read(); err != io.EOF {
		t.Fatalf("empty loser tree read = %v, want io.EOF", err)
	}
	lt.Close()

	lt2, _ := lessTree([]Source[record.Record]{srcOf(), srcOf(5), srcOf()}, record.Less)
	got := drain(t, lt2)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
	lt2.Close()

	hm, _ := NewHeapMerger([]Source[record.Record]{srcOf()}, record.Less)
	if _, err := hm.Read(); err != io.EOF {
		t.Fatalf("heap merger over empty source = %v, want io.EOF", err)
	}
	hm.Close()
}

func TestMergersDuplicateKeys(t *testing.T) {
	srcs := []Source[record.Record]{srcOf(1, 1, 1), srcOf(1, 1), srcOf(1)}
	lt, _ := lessTree(srcs, record.Less)
	got := drain(t, lt)
	if len(got) != 6 {
		t.Fatalf("got %d records, want 6", len(got))
	}
	lt.Close()
}

func TestReadAfterClose(t *testing.T) {
	lt, _ := lessTree([]Source[record.Record]{srcOf(1)}, record.Less)
	lt.Close()
	if _, err := lt.Read(); err != record.ErrClosed {
		t.Fatalf("read after close = %v, want ErrClosed", err)
	}
	if err := lt.Close(); err != record.ErrClosed {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}
	hm, _ := NewHeapMerger([]Source[record.Record]{srcOf(1)}, record.Less)
	hm.Close()
	if _, err := hm.Read(); err != record.ErrClosed {
		t.Fatalf("heap read after close = %v, want ErrClosed", err)
	}
}

// makeRuns writes n runs of the given length onto fs.
func makeRuns(t *testing.T, fs vfs.FS, em *runio.Emitter[record.Record], n, length int, seed int64) ([]runio.Run, []record.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var runs []runio.Run
	var all []record.Record
	for i := 0; i < n; i++ {
		keys := make([]int64, length)
		for j := range keys {
			keys[j] = rng.Int63n(1 << 30)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		name, w, err := em.Forward("run")
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range keys {
			rec := record.Record{Key: k, Aux: uint64(i*length + j)}
			all = append(all, rec)
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, runio.SingleRun(name, int64(length)))
	}
	return runs, all
}

func TestMergeSinglePass(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 5, 100, 1)
	var out record.SliceWriter
	stats, err := Merge(em, runs, &out, Config{FanIn: 10, MemoryBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 1 || stats.Merges != 1 || stats.Inputs != 5 {
		t.Fatalf("stats = %+v, want single pass", stats)
	}
	if stats.RecordsMoved != 0 {
		t.Fatalf("single pass should not move records through intermediates, moved %d", stats.RecordsMoved)
	}
	if !record.IsSorted(out.Vals) {
		t.Fatal("merged output not sorted")
	}
	if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
		t.Fatal("merge lost records")
	}
	// All run files must be deleted after the merge.
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after merge: %v", names)
	}
}

func TestMergeMultiPass(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 23, 50, 2)
	var out record.SliceWriter
	stats, err := Merge(em, runs, &out, Config{FanIn: 3, MemoryBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	// 23 runs at fan-in 3: 23 -> 8 -> 3 -> 1, i.e. 3 passes.
	if stats.Passes != 3 {
		t.Fatalf("passes = %d, want 3", stats.Passes)
	}
	if !record.IsSorted(out.Vals) || len(out.Vals) != len(all) {
		t.Fatal("multi-pass merge output wrong")
	}
	if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
		t.Fatal("multi-pass merge lost records")
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after merge: %v", names)
	}
}

func TestMergeSingleRunPassThrough(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 1, 64, 3)
	var out record.SliceWriter
	stats, err := Merge(em, runs, &out, Config{FanIn: 10, MemoryBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 0 || stats.Merges != 0 {
		t.Fatalf("single run should stream through, stats = %+v", stats)
	}
	if len(out.Vals) != len(all) {
		t.Fatal("records lost")
	}
}

func TestMergeNoInputs(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	var out record.SliceWriter
	stats, err := Merge(em, nil, &out, Config{FanIn: 4, MemoryBytes: 4096})
	if err != nil || stats.Inputs != 0 || len(out.Vals) != 0 {
		t.Fatalf("empty merge = (%+v, %v)", stats, err)
	}
}

func TestMergeRejectsBadFanIn(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	var out record.SliceWriter
	if _, err := Merge(em, nil, &out, Config{FanIn: 1}); err == nil {
		t.Fatal("fan-in 1 should be rejected")
	}
}

func TestPolyphaseCountsTable21(t *testing.T) {
	// Table 2.1 of the thesis, verbatim.
	steps, err := PolyphaseCounts([]int{8, 10, 3, 0, 8, 11})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{8, 10, 3, 0, 8, 11},
		{5, 7, 0, 3, 5, 8},
		{2, 4, 3, 0, 2, 5},
		{0, 2, 1, 2, 0, 3},
		{1, 1, 0, 1, 0, 2},
		{0, 0, 1, 0, 0, 1},
		{1, 0, 0, 0, 0, 0},
	}
	if len(steps) != len(want) {
		t.Fatalf("got %d steps, want %d", len(steps), len(want))
	}
	for i, w := range want {
		for j, c := range w {
			if steps[i].RunsPerTape[j] != c {
				t.Fatalf("step %d tape %d = %d, want %d (full: %v)",
					i, j, steps[i].RunsPerTape[j], c, steps[i].RunsPerTape)
			}
		}
	}
}

func TestPolyphaseCountsNeedsEmptyTape(t *testing.T) {
	if _, err := PolyphaseCounts([]int{1, 2, 3}); err == nil {
		t.Fatal("expected error without an empty tape")
	}
}

func TestPolyphaseRecordLevel(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "p")
	// Fibonacci-ish distribution over 3 tapes: {2, 1, 0}.
	runsA, allA := makeRuns(t, fs, em, 2, 30, 5)
	runsB, allB := makeRuns(t, fs, em, 1, 30, 6)
	tapes := []*Tape{{Runs: runsA}, {Runs: runsB}, {}}
	var out record.SliceWriter
	if err := Polyphase(em, tapes, &out, 4096, Config{FanIn: 10, MemoryBytes: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	all := append(append([]record.Record(nil), allA...), allB...)
	if !record.IsSorted(out.Vals) || len(out.Vals) != len(all) {
		t.Fatalf("polyphase output wrong: %d records", len(out.Vals))
	}
	if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
		t.Fatal("polyphase lost records")
	}
}

func TestPolyphaseDegenerateDistribution(t *testing.T) {
	// {2,2,0} is not Fibonacci-shaped and would ping-pong in a naive
	// implementation; the fallback must still converge.
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "p")
	runsA, allA := makeRuns(t, fs, em, 2, 20, 7)
	runsB, allB := makeRuns(t, fs, em, 2, 20, 8)
	tapes := []*Tape{{Runs: runsA}, {Runs: runsB}, {}}
	var out record.SliceWriter
	if err := Polyphase(em, tapes, &out, 4096, Config{FanIn: 10, MemoryBytes: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	all := append(append([]record.Record(nil), allA...), allB...)
	if !record.IsSorted(out.Vals) || len(out.Vals) != len(all) {
		t.Fatal("degenerate polyphase output wrong")
	}
}

func TestPolyphaseNeedsEmptyTape(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "p")
	runs, _ := makeRuns(t, fs, em, 2, 10, 9)
	tapes := []*Tape{{Runs: runs[:1]}, {Runs: runs[1:]}}
	var out record.SliceWriter
	if err := Polyphase(em, tapes, &out, 4096, Config{FanIn: 10, MemoryBytes: 1 << 14}); err == nil {
		t.Fatal("expected error without an empty tape")
	}
}

// BenchmarkAblationMergeEngine times the loser tree against HeapMerger on
// the same runs, generated once; each iteration merges fresh slice sources
// over them and checks the output length.
func BenchmarkAblationMergeEngine(b *testing.B) {
	const k, n = 10, 1000
	rng := rand.New(rand.NewSource(1))
	data := make([][]record.Record, k)
	for i := range data {
		keys := make([]int64, n)
		for j := range keys {
			keys[j] = rng.Int63n(1 << 30)
		}
		sort.Slice(keys, func(a, bb int) bool { return keys[a] < keys[bb] })
		data[i] = record.FromKeys(keys...)
	}
	drainB := func(b *testing.B, m Source[record.Record]) {
		got := 0
		for {
			_, err := m.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got++
		}
		if got != k*n {
			b.Fatalf("merged %d records, want %d", got, k*n)
		}
		m.Close()
	}
	b.Run("losertree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lt, _ := lessTree(sliceSources(data), record.Less)
			drainB(b, lt)
		}
	})
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hm, _ := NewHeapMerger(sliceSources(data), record.Less)
			drainB(b, hm)
		}
	})
}

func TestMergeParallelWorkers(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		fs := vfs.NewMemFS()
		em := runio.RecordEmitter(fs, "m")
		runs, all := makeRuns(t, fs, em, 37, 40, int64(workers))
		var out record.SliceWriter
		stats, err := Merge(em, runs, &out, Config{FanIn: 3, MemoryBytes: 1 << 14, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !record.IsSorted(out.Vals) || len(out.Vals) != len(all) {
			t.Fatalf("workers %d: parallel merge output wrong", workers)
		}
		if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
			t.Fatalf("workers %d: parallel merge lost records", workers)
		}
		// 37 runs at fan-in 3 still takes 18 merge operations regardless of
		// the schedule: every merge removes width-1 runs, the first is
		// width-aligned, and the final 3-way streams to the destination.
		if stats.Merges != 18 {
			t.Fatalf("workers %d: merges = %d, want 18", workers, stats.Merges)
		}
		names, _ := fs.Names()
		if len(names) != 0 {
			t.Fatalf("workers %d: files left after merge: %v", workers, names)
		}
	}
}

// cancelNow is a Cancel hook that trips after a fixed number of polls. The
// parallel merge polls it from several workers at once.
type cancelNow struct {
	polls atomic.Int64
	after int64
	err   error
}

func (c *cancelNow) hook() error {
	if c.polls.Add(1) > c.after {
		return c.err
	}
	return nil
}

func TestMergeCancelAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fs := vfs.NewMemFS()
		em := runio.RecordEmitter(fs, "m")
		runs, _ := makeRuns(t, fs, em, 23, 50, 5)
		cn := &cancelNow{after: 3, err: io.ErrClosedPipe}
		var out record.SliceWriter
		_, err := Merge(em, runs, &out, Config{
			FanIn: 3, MemoryBytes: 1 << 14, Workers: workers, Cancel: cn.hook,
		})
		if err != io.ErrClosedPipe {
			t.Fatalf("workers %d: err = %v, want the cancel error", workers, err)
		}
	}
}

// TestNewStreamMatchesMerge pins the streaming view against the
// materialising Merge: identical order, identical stats, identical file
// cleanup once the Stream is closed.
func TestNewStreamMatchesMerge(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 23, 50, 9)
	st, err := NewStream(em, runs, Config{FanIn: 3, MemoryBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAll[record.Record](st)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(got) {
		t.Fatal("streamed merge not sorted")
	}
	if !record.NewMultiset(got).Equal(record.NewMultiset(all)) {
		t.Fatal("streamed merge lost records")
	}
	ms := st.Stats()
	if ms.Inputs != 23 || ms.Passes < 2 || ms.Merges < 2 {
		t.Fatalf("stream stats %+v, want a genuine multi-pass merge", ms)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after close: %v", names)
	}
	if _, err := st.Read(); err != stream.ErrClosed {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
}

// TestStreamPartialDrainCleansUp abandons a stream after a few elements:
// Close must still delete every remaining run file — that early abandonment
// is exactly how TopK skips the tail of the final merge.
func TestStreamPartialDrainCleansUp(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 7, 200, 10)
	st, err := NewStream(em, runs, Config{FanIn: 10, MemoryBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]record.Record(nil), all...)
	sort.Slice(want, func(i, j int) bool { return record.Less(want[i], want[j]) })
	for i := 0; i < 5; i++ {
		got, err := st.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want[i].Key {
			t.Fatalf("element %d: key %d, want %d", i, got.Key, want[i].Key)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after partial drain: %v", names)
	}
}

// TestStreamEmptyAndCancel covers the empty input stream and mid-stream
// cancellation through the batch path.
func TestStreamEmptyAndCancel(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	st, err := NewStream(em, nil, Config{FanIn: 4, MemoryBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Read(); err != io.EOF {
		t.Fatalf("empty stream Read = %v, want EOF", err)
	}
	if n, err := st.ReadBatch(make([]record.Record, 4)); n != 0 || err != io.EOF {
		t.Fatalf("empty stream ReadBatch = %d, %v, want EOF", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	runs, _ := makeRuns(t, fs, em, 3, 100, 11)
	cn := &cancelNow{after: 1, err: io.ErrClosedPipe}
	st, err = NewStream(em, runs, Config{FanIn: 4, MemoryBytes: 4096, Cancel: cn.hook})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]record.Record, 8)
	if _, err := st.ReadBatch(buf); err != nil {
		t.Fatalf("first batch should pass, got %v", err)
	}
	if _, err := st.ReadBatch(buf); err != io.ErrClosedPipe {
		t.Fatalf("second batch = %v, want the cancel error", err)
	}
	st.Close()
}
