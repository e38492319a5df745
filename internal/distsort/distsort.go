// Package distsort implements a sharded, range-partitioned distribution
// sort on top of the extsort driver.
//
// The engine samples a memory-sized prefix of the input, picks S-1
// splitters at the sample's quantile ranks (sel.Multiselect), and
// range-partitions the stream into S non-overlapping shards. Each shard is
// sorted concurrently on its own goroutine by its own extsort run — its own
// temp-file prefix, its own carved share of the memory budget, and in
// durable mode its own manifest — and because the shard key ranges are
// disjoint the shard outputs are simply concatenated in splitter order: no
// final cross-shard k-way merge ever touches the data.
//
// Comparator-equal splitters are collapsed into bands whose ties are
// spread round-robin across the band's shards, so heavily duplicated
// inputs (including all-equal keys) cannot degenerate into one giant
// shard. The partition pass is deterministic — same input, same
// configuration, same routing — which is what lets a crashed durable sort
// resume: the partition replays, each shard's extsort recovers its own
// manifest runs, and only the unfinished shards regenerate.
package distsort

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/extsort"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/vfs"
)

const (
	// feedBatch is the element batch size handed between the partition
	// loop, the shard channels and the concatenation drain.
	feedBatch = 1024
	// feedDepth is the per-shard channel depth in batches; it bounds the
	// records in flight per shard to feedDepth*feedBatch.
	feedDepth = 4
)

// Config configures one sharded sort.
type Config struct {
	// Shards is the number of range shards S. Zero picks the extsort
	// parallelism (GOMAXPROCS when that is also unset); one bypasses
	// partitioning entirely and delegates to a single extsort run.
	// Durable sorts (Manifest or Resume set) must pick explicitly,
	// because the automatic count could differ across restarts and
	// orphan the previous attempt's per-shard manifests.
	Shards int

	// SampleLimit caps how many records of the input's head are buffered
	// to choose the splitters. Zero means Extsort.Memory. An input that
	// fits entirely within the limit is sorted by one full-budget extsort
	// run instead of being sharded.
	SampleLimit int

	// Extsort is the per-shard sort configuration template. Memory is
	// the total budget in records and is carved evenly across the
	// shards; Prefix namespaces the whole sort and each shard appends
	// its own "-sNN" suffix, so shard spill files and manifests never
	// collide. Manifest gives every shard its own durable manifest;
	// Resume replays the partition and recovers per shard. Trace and
	// Metrics are shared by the partition pass and all shards.
	Extsort extsort.Config
}

// shardResult is one shard goroutine's outcome.
type shardResult struct {
	stats extsort.Stats
	ok    bool
}

// Sort range-partitions src into shards, sorts them concurrently and
// concatenates the shard outputs into dst in splitter order. The returned
// stats aggregate all shards; Shards and ShardRecords describe the
// partitioning itself.
//
// When comparator-equal elements are bitwise identical (always true for
// total keys), the output is byte-identical to a single unsharded extsort
// run over the same input; otherwise it is the same multiset in the same
// comparator order with ties possibly permuted.
func Sort[T any](src stream.Reader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops extsort.Ops[T]) (extsort.Stats, error) {
	entry := time.Now()
	shards := cfg.Shards
	if shards <= 0 {
		if cfg.Extsort.Manifest || cfg.Extsort.Resume {
			return extsort.Stats{}, fmt.Errorf("distsort: durable sorts need an explicit shard count, got %d", cfg.Shards)
		}
		shards = cfg.Extsort.Parallelism
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Extsort.Memory <= 0 {
		return extsort.Stats{}, fmt.Errorf("distsort: memory must be positive, got %d", cfg.Extsort.Memory)
	}
	if shards == 1 {
		return extsort.Sort(src, dst, fs, cfg.Extsort, ops)
	}
	limit := cfg.SampleLimit
	if limit <= 0 {
		limit = cfg.Extsort.Memory
	}
	if min := 2 * shards; limit < min {
		limit = min
	}
	sample, fits, err := readPrefix(src, limit, cfg.Extsort.Cancel)
	if err != nil {
		return extsort.Stats{}, err
	}
	if fits {
		// The whole input fit inside the sample: one full-budget sort is
		// cheaper than S tiny ones and trivially identical to the
		// unsharded output. Deterministic, so a resumed sort re-takes
		// the same branch.
		return extsort.Sort(stream.NewSliceReader(sample), dst, fs, cfg.Extsort, ops)
	}
	rt, err := newRouter(sample, shards, ops, cfg.Extsort.Parallelism)
	if err != nil {
		return extsort.Stats{}, err
	}
	return shardedSort(entry, sample, src, dst, fs, cfg, ops, shards, rt)
}

// shardedSort runs the partition loop, the S concurrent shard sorts and
// the in-order concatenation drain, and aggregates the statistics.
func shardedSort[T any](entry time.Time, sample []T, src stream.Reader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops extsort.Ops[T], shards int, rt *router[T]) (extsort.Stats, error) {
	tr := cfg.Extsort.Trace
	cancel := cfg.Extsort.Cancel
	fail := newFailure()
	feeds := make([]chan []T, shards)
	outs := make([]chan []T, shards)
	for i := range feeds {
		feeds[i] = make(chan []T, feedDepth)
		outs[i] = make(chan []T, feedDepth)
	}
	results := make([]shardResult, shards)
	done := make(chan struct{})
	for i := 0; i < shards; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			runShard(i, feeds[i], outs[i], fs, shardConfig(cfg, shards, i), ops, fail, &results[i])
		}(i)
	}

	// Partition overlaps run generation: shards consume their feeds while
	// the loop is still routing, so the "partition" phase covers both.
	psp := tr.StartOn("shard_partition", "shard_partition",
		obs.Int("shards", int64(shards)), obs.Int("sample", int64(len(sample))), obs.Int("splitters", int64(len(rt.bounds))))
	partStart := time.Now()
	counts, perr := partition(sample, src, feeds, rt, fail, cancel)
	partWall := time.Since(partStart)
	if perr != nil {
		fail.fail(perr)
		psp.Drop()
	} else {
		psp.End(obs.Int("max_shard", maxOf(counts)))
	}

	// Concatenate: the shard ranges are disjoint and ordered, so draining
	// each output channel in shard order is the merge.
	drainStart := time.Now()
	if perr == nil {
		if derr := drain(dst, outs, fail, cancel); derr != nil {
			fail.fail(derr)
		}
	}
	drainWall := time.Since(drainStart)
	for i := 0; i < shards; i++ {
		<-done
	}
	if err := fail.get(); err != nil {
		return extsort.Stats{}, err
	}

	st := extsort.Stats{
		Shards:       shards,
		ShardRecords: counts,
		Keyed:        results[0].stats.Keyed,
		Policy:       results[0].stats.Policy,
		Storage:      results[0].stats.Storage,
		RunGenWall:   partWall,
		MergeWall:    drainWall,
	}
	for _, r := range results {
		s := r.stats
		st.Records += s.Records
		st.Runs += s.Runs
		st.RunsRecovered += s.RunsRecovered
		st.PolicySwitches += s.PolicySwitches
		st.OverlapRuns += s.OverlapRuns
		st.MergeInputs += s.MergeInputs
		st.MergeOps += s.MergeOps
		if s.MergePasses > st.MergePasses {
			st.MergePasses = s.MergePasses
		}
		addIO(&st.IO, s.IO)
	}
	if st.Runs > 0 {
		st.AvgRunLength = float64(st.Records) / float64(st.Runs)
	}
	st.Phases = []extsort.PhaseStat{
		{Name: "partition", Wall: partWall},
		{Name: "merge", Wall: drainWall},
	}
	st.Elapsed = time.Since(entry)
	if m := cfg.Extsort.Metrics; m != nil {
		m.Counter(obs.MShards, "Range shards executed by distribution sorts.").Add(int64(shards))
		h := m.Histogram(obs.MShardRecords, "Records routed to each range shard.", obs.RunLengthBuckets)
		for _, c := range counts {
			h.Observe(float64(c))
		}
	}
	return st, nil
}

// shardConfig carves shard i's extsort configuration out of the template:
// an even share of the memory budget, a namespaced spill prefix (which in
// durable mode also namespaces the shard's manifest), and a share of the
// merge parallelism. The progress reporter stays with the driver — S
// concurrent sorts reporting phases would interleave meaninglessly.
func shardConfig(cfg Config, shards, i int) extsort.Config {
	scfg := cfg.Extsort
	scfg.Memory = cfg.Extsort.Memory / shards
	if scfg.Memory < 1 {
		scfg.Memory = 1
	}
	base := scfg.Prefix
	if base == "" {
		base = "sort"
	}
	scfg.Prefix = fmt.Sprintf("%s-s%02d", base, i)
	par := scfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	scfg.Parallelism = par / shards
	if scfg.Parallelism < 1 {
		scfg.Parallelism = 1
	}
	scfg.Progress = nil
	return scfg
}

// runShard sorts one shard: generate runs from the feed channel, then
// merge them into the output channel for the drain to concatenate.
func runShard[T any](i int, feed <-chan []T, out chan<- []T, fs vfs.FS, scfg extsort.Config, ops extsort.Ops[T], fail *failure, res *shardResult) {
	tr := scfg.Trace
	sp := tr.StartOn("shard_sort", fmt.Sprintf("shard %02d", i), obs.Int("shard", int64(i)))
	in := &chanReader[T]{ch: feed, done: fail.done}
	rset, err := extsort.GenerateRuns(in, fs, scfg, ops)
	if err == nil {
		// A shard resuming from a committed manifest adopts its runs
		// without reading its feed, but the partition loop still routes
		// the shard's share and the drain starts only after it: consume
		// the rest of the feed, or a full feed and a full output channel
		// deadlock the sort.
		if err = in.discard(); err != nil && !scfg.Manifest {
			rset.Discard()
		}
	}
	if err != nil {
		close(out)
		fail.fail(fmt.Errorf("distsort: shard %d: %w", i, err))
		sp.Drop()
		return
	}
	w := &chanWriter[T]{ch: out, done: fail.done, buf: make([]T, 0, feedBatch)}
	st, err := rset.Merge(w)
	res.stats = st
	if err == nil {
		err = w.flushClose()
	} else {
		close(out)
		if !scfg.Manifest {
			// Non-durable shards have nothing to resume from; sweep the
			// leftover run files. Durable shards keep them for Resume.
			rset.Discard()
		}
	}
	if err != nil {
		fail.fail(fmt.Errorf("distsort: shard %d: %w", i, err))
		sp.Drop()
		return
	}
	sp.End(obs.Int("records", st.Records), obs.Int("runs", int64(st.Runs)))
	res.ok = true
}

// partition replays the sampled prefix in its original input order, then
// the rest of src, routing every element to exactly one shard feed.
func partition[T any](sample []T, src stream.Reader[T], feeds []chan []T, rt *router[T], fail *failure, cancel func() error) ([]int64, error) {
	counts := make([]int64, len(feeds))
	pend := make([][]T, len(feeds))
	for i := range pend {
		pend[i] = make([]T, 0, feedBatch)
	}
	send := func(i int) error {
		b := pend[i]
		pend[i] = make([]T, 0, feedBatch)
		select {
		case feeds[i] <- b:
			return nil
		case <-fail.done:
			return fail.get()
		}
	}
	route := func(batch []T) error {
		for _, v := range batch {
			i := rt.route(v)
			counts[i]++
			pend[i] = append(pend[i], v)
			if len(pend[i]) >= feedBatch {
				if err := send(i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	poll := func() error {
		if cancel != nil {
			return cancel()
		}
		return nil
	}
	for off := 0; off < len(sample); off += feedBatch {
		end := off + feedBatch
		if end > len(sample) {
			end = len(sample)
		}
		if err := poll(); err != nil {
			return counts, err
		}
		if err := route(sample[off:end]); err != nil {
			return counts, err
		}
	}
	br := stream.AsBatchReader(src)
	batch := make([]T, feedBatch)
	for {
		if err := poll(); err != nil {
			return counts, err
		}
		n, err := br.ReadBatch(batch)
		if n > 0 {
			if rerr := route(batch[:n]); rerr != nil {
				return counts, rerr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return counts, err
		}
	}
	for i := range pend {
		if len(pend[i]) > 0 {
			if err := send(i); err != nil {
				return counts, err
			}
		}
		close(feeds[i])
	}
	return counts, nil
}

// drain concatenates the shard outputs into dst in shard order.
func drain[T any](dst stream.Writer[T], outs []chan []T, fail *failure, cancel func() error) error {
	bw := stream.AsBatchWriter(dst)
	for i := range outs {
	shard:
		for {
			select {
			case b, ok := <-outs[i]:
				if !ok {
					break shard
				}
				if err := bw.WriteBatch(b); err != nil {
					return err
				}
				if cancel != nil {
					if err := cancel(); err != nil {
						return err
					}
				}
			case <-fail.done:
				return fail.get()
			}
		}
	}
	return nil
}

// addIO accumulates one shard's I/O accounting into the aggregate.
func addIO(dst *extsort.IOStats, s extsort.IOStats) {
	dst.BlocksWritten += s.BlocksWritten
	dst.BlocksRead += s.BlocksRead
	dst.RawBytesWritten += s.RawBytesWritten
	dst.StoredBytesWritten += s.StoredBytesWritten
	dst.RawBytesRead += s.RawBytesRead
	dst.StoredBytesRead += s.StoredBytesRead
	dst.VerifyFailures += s.VerifyFailures
	dst.MemFiles += s.MemFiles
	dst.DiskFiles += s.DiskFiles
	dst.MemBytes += s.MemBytes
	dst.DiskBytes += s.DiskBytes
}

// maxOf returns the largest count, or zero for an empty slice.
func maxOf(counts []int64) int64 {
	var m int64
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}
