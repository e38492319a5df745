package merge

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/stream"
)

// Config parameterises the merge phase.
type Config struct {
	// FanIn is the number of inputs merged simultaneously (thesis optimum:
	// 10, §6.1.1).
	FanIn int
	// MemoryBytes is the buffer memory available to the merge phase; it is
	// divided evenly among the FanIn input readers and one output writer.
	MemoryBytes int
	// Workers bounds how many independent intermediate merges run
	// concurrently. ≤1 reproduces the sequential smallest-first schedule
	// exactly; above 1 each intermediate pass is planned up front and its
	// merge operations execute on a worker pool.
	Workers int
	// Cancel, when set, is polled between batches of every merge operation;
	// a non-nil return aborts the merge with that error. The driver wires
	// it to ctx.Err so cancellation fires promptly mid-merge.
	Cancel func() error
	// Span, when non-nil, is the enclosing "merge" trace span: every merge
	// operation records a "merge_op" child under it and the final merge a
	// "merge_final" child that ends when the Stream closes. Workers > 1 is
	// safe — spans may end from any goroutine.
	Span *obs.Span
	// Metrics, when non-nil, receives the merge-operation counters and the
	// fan-in histogram (see obs/names.go).
	Metrics *obs.Registry
	// Progress, when non-nil, is advanced by every output batch of the
	// final merge.
	Progress *obs.Reporter
	// OnClose, when non-nil, runs when the merge Stream closes; the driver
	// uses it to end its phase span and sync I/O metrics. Drivers make it
	// idempotent and also invoke it on NewStream/Merge error paths.
	OnClose func()

	// Collectors resolved once by NewStream so merge operations (possibly
	// on worker goroutines) never touch the registry.
	mOps   *obs.Counter
	mFanIn *obs.Histogram
	mMoved *obs.Counter
}

// resolveMetrics caches the registry lookups on the Config; a nil registry
// leaves every collector nil (disabled).
func (c *Config) resolveMetrics() {
	c.mOps = c.Metrics.Counter(obs.MMergeOps, "Individual k-way merge operations (intermediate and final).")
	c.mFanIn = c.Metrics.Histogram(obs.MMergeFanIn, "Merge operation fan-in distribution.", obs.FanInBuckets)
	c.mMoved = c.Metrics.Counter(obs.MMergeRecordsMoved, "Records moved through intermediate merge runs.")
}

// bufBytes returns the per-stream buffer budget for a merge of the given
// width: an equal share of the merge memory across the inputs plus the
// output, floored at one file system page — no real device transfers less
// than a page per request.
func (c Config) bufBytes(width int) int {
	if width < 1 {
		width = 1
	}
	b := c.MemoryBytes / (width + 1)
	if b < runio.DefaultPageSize {
		b = runio.DefaultPageSize
	}
	return b
}

func (c Config) cancelled() error {
	if c.Cancel == nil {
		return nil
	}
	return c.Cancel()
}

// Stats reports what the merge phase did.
type Stats struct {
	// Passes is the depth of the merge tree: the maximum number of merge
	// operations any record flowed through (0 when the input was a single
	// run already).
	Passes int
	// Merges is the number of k-way merge operations performed.
	Merges int
	// RecordsMoved counts records read+written through intermediate runs,
	// excluding the final pass to the destination.
	RecordsMoved int64
	// Inputs is the initial number of merge inputs.
	Inputs int
}

// newEngine builds the loser tree over the inputs with the emitter's match
// strategy: normalized keys when it carries a KeyCodec — a cached prefix
// when the whole key fits the uint64, offset-value coding otherwise
// (keyed.go) — and the comparator when it does not. The output is the same
// either way.
func newEngine[T any](em *runio.Emitter[T], srcs []Source[T]) (Source[T], error) {
	kc, k := em.KeyCodec, len(srcs)
	switch {
	case kc == nil:
		return newLoserTree(srcs, byLess(em.Less, k))
	case kc.FixedKeySize() >= 1 && kc.FixedKeySize() <= 8:
		return newLoserTree(srcs, byPrefix(codec.PrefixFunc(kc), k))
	default:
		return newLoserTree(srcs, byOVC(kc, k))
	}
}

// openInputs opens each run with the per-stream buffer budget.
func openInputs[T any](em *runio.Emitter[T], runs []runio.Run, bufBytes int) ([]Source[T], error) {
	srcs := make([]Source[T], 0, len(runs))
	for _, r := range runs {
		rc, err := em.Open(r, bufBytes)
		if err != nil {
			for _, s := range srcs {
				s.Close()
			}
			return nil, err
		}
		srcs = append(srcs, rc)
	}
	return srcs, nil
}

// depthRun pairs a run with the depth of the merge tree that produced it.
type depthRun struct {
	run   runio.Run
	depth int
}

func sortBySize(queue []depthRun) {
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].run.Records < queue[j].run.Records })
}

// errBadFanIn reports a fan-in below the minimum merge width.
func errBadFanIn(fanIn int) error {
	return fmt.Errorf("merge: fan-in must be at least 2, got %d", fanIn)
}

// Merge combines the given sorted inputs into dst using repeated FanIn-way
// merges scheduled smallest-first — the optimal merge pattern (Knuth vol. 3
// §5.4.9): merging the smallest runs first minimises the total volume moved
// through intermediate files, which matters for 2WRS because its victim
// streams are tiny compared to the heap streams. The first merge takes
// ((n-1) mod (FanIn-1)) + 1 runs so that every later merge is full-width.
// Intermediate runs are deleted as soon as they are consumed; the final
// merge streams directly to dst.
//
// With Workers > 1 the intermediate merges of each pass are independent —
// they touch disjoint input runs and write distinct output files — and run
// concurrently on a bounded worker pool. The result stream is identical;
// only the wall-clock schedule (and, slightly, the grouping of runs into
// merge operations) changes.
//
// Each input is one sorted stream when opened: a 2WRS run with overlapping
// stream ranges interleaves its segments on the fly (runio.OpenRun), so
// callers pass runs as-is. The element codec and comparator come from em.
//
// Merge is NewStream followed by a batched copy into dst: callers that want
// the merged order as a pull stream instead of a materialised output use
// NewStream directly. Run files are read and removed through em's storage
// backend.
func Merge[T any](em *runio.Emitter[T], inputs []runio.Run, dst stream.Writer[T], cfg Config) (Stats, error) {
	st, err := NewStream(em, inputs, cfg)
	if err != nil {
		return Stats{Inputs: len(inputs)}, err
	}
	if _, err := stream.CopyCancel[T](dst, st, cfg.Cancel); err != nil {
		st.Close()
		return st.Stats(), err
	}
	return st.Stats(), st.Close()
}

// reduceSequential is the historical schedule: one merge at a time,
// smallest runs first, the queue re-sorted after every operation so
// intermediate outputs compete on size with the remaining originals.
func reduceSequential[T any](em *runio.Emitter[T], queue []depthRun, cfg Config, stats *Stats) ([]depthRun, error) {
	sortBySize(queue)
	// Width of the first internal merge so all later ones are full.
	firstWidth := (len(queue)-1)%(cfg.FanIn-1) + 1
	for len(queue) > cfg.FanIn {
		if err := cfg.cancelled(); err != nil {
			return queue, err
		}
		width := cfg.FanIn
		if firstWidth > 1 {
			width = firstWidth
		}
		firstWidth = 0
		group := make([]runio.Run, 0, width)
		depth := 0
		for _, dr := range queue[:width] {
			group = append(group, dr.run)
			if dr.depth > depth {
				depth = dr.depth
			}
		}
		queue = queue[width:]
		out, err := mergeGroup(em, group, em.Namer.Next("merge"), cfg.bufBytes(width), cfg)
		if err != nil {
			return queue, err
		}
		stats.Merges++
		stats.RecordsMoved += out.Records
		queue = append(queue, depthRun{run: out, depth: depth + 1})
		sortBySize(queue)
	}
	return queue, nil
}

// reduceParallel reduces the queue to ≤ FanIn runs in planned passes. Each
// pass groups the currently smallest runs exactly like the sequential
// schedule would, pre-allocates the output file names, and executes the
// groups — which touch disjoint runs — concurrently on a pool of at most
// cfg.Workers goroutines.
func reduceParallel[T any](em *runio.Emitter[T], queue []depthRun, cfg Config, stats *Stats) ([]depthRun, error) {
	type group struct {
		runs  []runio.Run
		width int
		depth int
		name  string
	}
	firstWidth := (len(queue)-1)%(cfg.FanIn-1) + 1
	for len(queue) > cfg.FanIn {
		if err := cfg.cancelled(); err != nil {
			return queue, err
		}
		sortBySize(queue)
		// Plan this pass from the current queue only: every group is
		// independent of the pass's own outputs.
		var groups []group
		total, i := len(queue), 0
		for total > cfg.FanIn && i < len(queue) {
			width := cfg.FanIn
			if firstWidth > 1 {
				width = firstWidth
			}
			firstWidth = 0
			if width > len(queue)-i {
				width = len(queue) - i
			}
			if width < 2 {
				break
			}
			g := group{width: width, name: em.Namer.Next("merge")}
			for _, dr := range queue[i : i+width] {
				g.runs = append(g.runs, dr.run)
				if dr.depth > g.depth {
					g.depth = dr.depth
				}
			}
			groups = append(groups, g)
			i += width
			total -= width - 1
		}
		rest := append([]depthRun(nil), queue[i:]...)

		// The configured merge memory is a budget for the whole phase:
		// divide it across the merges that actually run concurrently so
		// Workers×MemoryBytes is never allocated.
		concurrent := cfg.Workers
		if len(groups) < concurrent {
			concurrent = len(groups)
		}
		if concurrent < 1 {
			concurrent = 1
		}
		share := cfg
		share.MemoryBytes = cfg.MemoryBytes / concurrent

		outs := make([]depthRun, len(groups))
		sem := make(chan struct{}, cfg.Workers)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for gi := range groups {
			wg.Add(1)
			go func(gi int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				g := groups[gi]
				out, err := mergeGroup(em, g.runs, g.name, share.bufBytes(g.width), cfg)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				outs[gi] = depthRun{run: out, depth: g.depth + 1}
			}(gi)
		}
		wg.Wait()
		if firstErr != nil {
			return rest, firstErr
		}
		for _, o := range outs {
			stats.Merges++
			stats.RecordsMoved += o.run.Records
		}
		queue = append(rest, outs...)
	}
	return queue, nil
}

// mergeGroup merges one group of runs into a fresh intermediate run under
// the given pre-allocated name and deletes the consumed inputs, recording
// one "merge_op" span and the per-operation metrics.
func mergeGroup[T any](em *runio.Emitter[T], group []runio.Run, name string, bufBytes int, cfg Config) (runio.Run, error) {
	sp := cfg.Span.Start("merge_op", obs.Int("width", int64(len(group))))
	out, err := mergeGroupRaw(em, group, name, bufBytes, cfg)
	if err != nil {
		sp.End(obs.Str("error", err.Error()))
		return out, err
	}
	sp.End(obs.Int("records", out.Records))
	cfg.mOps.Add(1)
	cfg.mFanIn.Observe(float64(len(group)))
	cfg.mMoved.Add(out.Records)
	return out, nil
}

// mergeGroupRaw is mergeGroup without the instrumentation.
func mergeGroupRaw[T any](em *runio.Emitter[T], group []runio.Run, name string, bufBytes int, cfg Config) (runio.Run, error) {
	srcs, err := openInputs(em, group, bufBytes)
	if err != nil {
		return runio.Run{}, err
	}
	eng, err := newEngine(em, srcs)
	if err != nil {
		return runio.Run{}, err
	}
	w, err := em.NewWriter(name, bufBytes)
	if err != nil {
		eng.Close()
		return runio.Run{}, err
	}
	if _, err := stream.CopyCancel[T](w, eng, cfg.Cancel); err != nil {
		eng.Close()
		w.Close()
		return runio.Run{}, err
	}
	if err := eng.Close(); err != nil {
		w.Close()
		return runio.Run{}, err
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, err
	}
	for _, r := range group {
		if err := r.Remove(em.Store); err != nil {
			return runio.Run{}, err
		}
	}
	return runio.SingleRun(name, w.Count()), nil
}
