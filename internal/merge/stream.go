package merge

import (
	"io"

	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Stream is a pull-driven view of a merge: the next element of the globally
// sorted order on every Read/ReadBatch, instead of a materialised output
// file. It is how the operator layer consumes a run set — Distinct, GroupBy
// and MergeJoin filter the stream on the fly, and TopK abandons it after k
// elements, skipping the I/O a full merge would have spent on the tail.
//
// A Stream speaks both stream protocols (Read and ReadBatch) and polls the
// merge Config.Cancel hook at batch boundaries — and every cancelBatch
// element reads on the element-at-a-time path — so a cancelled context
// surfaces mid-stream. Close releases the open sources and deletes the
// remaining run files; it is safe (and required) to Close a Stream that was
// only partially drained.
type Stream[T any] struct {
	store  storage.Backend
	eng    Source[T]
	engB   stream.BatchReader[T]
	finals []runio.Run
	stats  Stats
	cancel func() error
	ops    int
	closed bool

	// Observability: the final-merge span (ended at Close), the output
	// record counter, the progress reporter and the driver's close hook.
	// All nil when disabled.
	fspan   *obs.Span
	outc    *obs.Counter
	rep     *obs.Reporter
	onClose func()
}

// cancelBatch is how many element-at-a-time reads pass between cancellation
// checks on a Stream, matching the cadence of the public API's context
// wrappers (the batch path checks every ReadBatch call, which is at least as
// often).
const cancelBatch = 1024

// NewStream performs the intermediate merge passes — reducing the inputs to
// at most FanIn runs, exactly as Merge would, including the smallest-first
// schedule and the Workers pool — and returns the final merge as a Stream
// for the caller to drain. Merge is equivalent to NewStream followed by a
// copy into dst and Close.
//
// The returned Stream owns the remaining run files: they are deleted on
// Close whether or not the stream was fully drained. On error the reduced
// queue's files are left to the caller's file system cleanup, matching
// Merge's behaviour.
func NewStream[T any](em *runio.Emitter[T], inputs []runio.Run, cfg Config) (*Stream[T], error) {
	if cfg.FanIn < 2 {
		return nil, errBadFanIn(cfg.FanIn)
	}
	cfg.resolveMetrics()
	st := &Stream[T]{store: em.Store, cancel: cfg.Cancel, stats: Stats{Inputs: len(inputs)}}
	st.onClose = cfg.OnClose
	st.outc = cfg.Metrics.Counter(obs.MRecordsOut, "Records delivered by the final merge.")
	st.rep = cfg.Progress
	if len(inputs) == 0 {
		return st, nil
	}

	queue := make([]depthRun, 0, len(inputs))
	for _, r := range inputs {
		queue = append(queue, depthRun{run: r})
	}

	var err error
	if cfg.Workers > 1 {
		queue, err = reduceParallel(em, queue, cfg, &st.stats)
	} else {
		queue, err = reduceSequential(em, queue, cfg, &st.stats)
	}
	if err != nil {
		return nil, err
	}

	depth := 0
	for _, dr := range queue {
		st.finals = append(st.finals, dr.run)
		if dr.depth > depth {
			depth = dr.depth
		}
	}
	srcs, err := openInputs(em, st.finals, cfg.bufBytes(len(st.finals)))
	if err != nil {
		return nil, err
	}
	if len(st.finals) == 1 {
		st.eng = srcs[0]
		st.stats.Passes = depth
	} else {
		st.eng, err = newEngine(em, srcs)
		if err != nil {
			return nil, err
		}
		st.stats.Merges++
		st.stats.Passes = depth + 1
		cfg.mOps.Add(1)
		cfg.mFanIn.Observe(float64(len(st.finals)))
	}
	st.engB = stream.AsBatchReader[T](st.eng)
	st.fspan = cfg.Span.Start("merge_final", obs.Int("width", int64(len(st.finals))))
	return st, nil
}

// Stats reports the merge statistics accumulated so far: the intermediate
// passes are complete by the time NewStream returns, so only the final
// merge's contribution (already counted) streams lazily.
func (s *Stream[T]) Stats() Stats { return s.stats }

// Read returns the next element of the merged order, polling the
// cancellation hook every cancelBatch reads.
func (s *Stream[T]) Read() (T, error) {
	var zero T
	if s.closed {
		return zero, stream.ErrClosed
	}
	if s.eng == nil {
		return zero, io.EOF
	}
	if s.cancel != nil && s.ops%cancelBatch == 0 {
		if err := s.cancel(); err != nil {
			return zero, err
		}
	}
	s.ops++
	v, err := s.eng.Read()
	if err == nil {
		s.outc.Add(1)
		s.rep.Add(1)
	}
	return v, err
}

// ReadBatch fills dst per the stream.BatchReader contract, polling the
// cancellation hook once per batch.
func (s *Stream[T]) ReadBatch(dst []T) (int, error) {
	if s.closed {
		return 0, stream.ErrClosed
	}
	if s.eng == nil {
		return 0, io.EOF
	}
	if s.cancel != nil {
		if err := s.cancel(); err != nil {
			return 0, err
		}
	}
	n, err := s.engB.ReadBatch(dst)
	if n > 0 {
		s.outc.Add(int64(n))
		s.rep.Add(int64(n))
	}
	return n, err
}

// Close releases the merge engine's sources and deletes the final run
// files. It must be called exactly once, drained or not.
func (s *Stream[T]) Close() error {
	if s.closed {
		return stream.ErrClosed
	}
	s.closed = true
	var first error
	if s.eng != nil {
		if err := s.eng.Close(); err != nil {
			first = err
		}
	}
	for _, r := range s.finals {
		if err := r.Remove(s.store); err != nil && first == nil {
			first = err
		}
	}
	s.fspan.End()
	if s.onClose != nil {
		s.onClose()
	}
	return first
}
