package distsort

import (
	"errors"
	"io"
	"sync"
)

// errAborted is what shard readers and writers return once another part
// of the sharded sort has failed; the failure that caused the abort is
// what Sort reports.
var errAborted = errors.New("distsort: aborted by concurrent failure")

// failure is the sort-wide first-error latch. fail records the first
// error and closes done, which unblocks every channel send and receive in
// the pipeline so the partition loop, the shard goroutines and the drain
// all unwind without deadlocking.
type failure struct {
	once sync.Once
	err  error
	done chan struct{}
}

func newFailure() *failure {
	return &failure{done: make(chan struct{})}
}

// fail latches the first error and releases everything blocked on done.
func (f *failure) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

// get returns the latched error, or nil when nothing failed.
func (f *failure) get() error {
	select {
	case <-f.done:
		return f.err
	default:
		return nil
	}
}

// chanReader adapts a shard's feed channel to the stream protocol. The
// batches it receives are owned by the reader (the partition loop never
// reuses a sent slice).
type chanReader[T any] struct {
	ch   <-chan []T
	done <-chan struct{}
	cur  []T
	pos  int
}

// next blocks for the next non-empty batch, EOF on channel close, or the
// abort latch.
func (r *chanReader[T]) next() error {
	for {
		select {
		case b, ok := <-r.ch:
			if !ok {
				return io.EOF
			}
			if len(b) == 0 {
				continue
			}
			r.cur, r.pos = b, 0
			return nil
		case <-r.done:
			return errAborted
		}
	}
}

// Read yields one element.
func (r *chanReader[T]) Read() (T, error) {
	if r.pos >= len(r.cur) {
		if err := r.next(); err != nil {
			var zero T
			return zero, err
		}
	}
	v := r.cur[r.pos]
	r.pos++
	return v, nil
}

// ReadBatch yields as much of the current batch as fits in dst.
func (r *chanReader[T]) ReadBatch(dst []T) (int, error) {
	if r.pos >= len(r.cur) {
		if err := r.next(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, r.cur[r.pos:])
	r.pos += n
	return n, nil
}

// discard consumes the rest of the feed until the partition loop closes it.
func (r *chanReader[T]) discard() error {
	for {
		if err := r.next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// chanWriter adapts a shard's output channel to the stream protocol,
// buffering elements into owned batches so the drain can consume them
// without copying.
type chanWriter[T any] struct {
	ch   chan<- []T
	done <-chan struct{}
	buf  []T
}

// Write buffers one element, flushing full batches.
func (w *chanWriter[T]) Write(v T) error {
	w.buf = append(w.buf, v)
	if len(w.buf) >= feedBatch {
		return w.flush()
	}
	return nil
}

// WriteBatch buffers a batch, flushing at the batch boundary.
func (w *chanWriter[T]) WriteBatch(src []T) error {
	for len(src) > 0 {
		n := feedBatch - len(w.buf)
		if n > len(src) {
			n = len(src)
		}
		w.buf = append(w.buf, src[:n]...)
		src = src[n:]
		if len(w.buf) >= feedBatch {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush hands the buffered batch to the drain and starts a fresh one.
func (w *chanWriter[T]) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	b := w.buf
	w.buf = make([]T, 0, feedBatch)
	select {
	case w.ch <- b:
		return nil
	case <-w.done:
		return errAborted
	}
}

// flushClose flushes the tail batch and closes the output channel.
func (w *chanWriter[T]) flushClose() error {
	err := w.flush()
	close(w.ch)
	return err
}
