// Package stream defines the generic stream interfaces the whole library is
// built on, together with in-memory adapters and copy helpers. Every layer
// of the sorter — run generation, run storage, the merge phase and the
// public API — moves values of an arbitrary element type T through these
// interfaces.
//
// Two protocols coexist: the element-at-a-time Reader/Writer pair, and the
// batch-at-a-time BatchReader/BatchWriter pair (batch.go). The batch
// protocol is the data plane's fast path — it amortises dynamic dispatch
// over whole pages of elements — and AsBatchReader/AsBatchWriter adapt any
// element stream into it, so the two interoperate freely.
package stream

import (
	"errors"
	"io"
)

// ErrClosed is returned by stream operations after Close.
var ErrClosed = errors.New("stream: closed")

// Reader yields elements one at a time; Read returns io.EOF when the stream
// is exhausted.
type Reader[T any] interface {
	Read() (T, error)
}

// Writer consumes elements one at a time.
type Writer[T any] interface {
	Write(T) error
}

// SliceReader adapts an in-memory slice to the Reader interface.
type SliceReader[T any] struct {
	vals []T
	pos  int
}

// NewSliceReader returns a Reader over vals. The slice is not copied; the
// caller must not mutate it while reading.
func NewSliceReader[T any](vals []T) *SliceReader[T] {
	return &SliceReader[T]{vals: vals}
}

// Read returns the next element or io.EOF.
func (s *SliceReader[T]) Read() (T, error) {
	if s.pos >= len(s.vals) {
		var zero T
		return zero, io.EOF
	}
	v := s.vals[s.pos]
	s.pos++
	return v, nil
}

// ReadBatch copies up to len(dst) elements into dst.
func (s *SliceReader[T]) ReadBatch(dst []T) (int, error) {
	if s.pos >= len(s.vals) {
		if len(dst) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(dst, s.vals[s.pos:])
	s.pos += n
	return n, nil
}

// Remaining reports how many elements have not been read yet.
func (s *SliceReader[T]) Remaining() int { return len(s.vals) - s.pos }

// Reset rewinds the reader to the beginning of the slice.
func (s *SliceReader[T]) Reset() { s.pos = 0 }

// Pushback serves a queue of elements ahead of the rest of a stream: the
// head a sampler already consumed, or the state a run generator carried
// across a restart or a switch.
type Pushback[T any] struct {
	queue []T
	pos   int
	tail  BatchReader[T]
}

// NewPushback returns a reader serving queue, then tail.
func NewPushback[T any](queue []T, tail BatchReader[T]) *Pushback[T] {
	return &Pushback[T]{queue: queue, tail: tail}
}

// Push puts vals in front of the elements still queued.
func (p *Pushback[T]) Push(vals []T) {
	p.queue = append(vals, p.queue[p.pos:]...)
	p.pos = 0
}

// Unread returns the queued elements not yet served and empties the queue.
func (p *Pushback[T]) Unread() []T {
	q := p.queue[p.pos:]
	p.queue, p.pos = nil, 0
	return q
}

// ReadBatch serves the queue first, then the tail.
func (p *Pushback[T]) ReadBatch(dst []T) (int, error) {
	if p.pos < len(p.queue) {
		n := copy(dst, p.queue[p.pos:])
		p.pos += n
		return n, nil
	}
	p.queue, p.pos = nil, 0
	return p.tail.ReadBatch(dst)
}

// Read is the element-protocol fallback.
func (p *Pushback[T]) Read() (T, error) {
	var one [1]T
	n, err := p.ReadBatch(one[:])
	if n == 1 {
		return one[0], nil
	}
	if err == nil {
		err = io.EOF
	}
	return one[0], err
}

// SliceWriter collects written elements in memory.
type SliceWriter[T any] struct {
	Vals []T
}

// Write appends v.
func (s *SliceWriter[T]) Write(v T) error {
	s.Vals = append(s.Vals, v)
	return nil
}

// WriteBatch appends src.
func (s *SliceWriter[T]) WriteBatch(src []T) error {
	s.Vals = append(s.Vals, src...)
	return nil
}

// ReadAll drains r into a slice. It is intended for tests and examples where
// the stream is known to fit in memory. Sources that report their Remaining
// length get a pre-sized output slice instead of append-doubling.
func ReadAll[T any](r Reader[T]) ([]T, error) {
	return ReadAllCancel(r, nil)
}

// ReadAllCancel is ReadAll with a cancellation hook: cancel (nil means never)
// is polled before every batch, so an element-at-a-time source is abandoned
// within DefaultBatchLen reads of cancellation — the same 1024-op cadence the
// public API's context wrappers guarantee.
func ReadAllCancel[T any](r Reader[T], cancel func() error) ([]T, error) {
	var out []T
	if s, ok := r.(Sized); ok {
		if n := s.Remaining(); n > 0 {
			out = make([]T, 0, n)
		}
	}
	br := AsBatchReader(r)
	buf := make([]T, DefaultBatchLen)
	for {
		if cancel != nil {
			if err := cancel(); err != nil {
				return out, err
			}
		}
		n, err := br.ReadBatch(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// WriteAll writes every element of vals to w, stopping at the first error.
func WriteAll[T any](w Writer[T], vals []T) error {
	return AsBatchWriter(w).WriteBatch(vals)
}

// Copy streams elements from r to w until EOF, returning the number copied.
// It moves whole batches when either side supports the batch protocol,
// adapting the other side as needed.
func Copy[T any](w Writer[T], r Reader[T]) (int64, error) {
	return CopyCancel(w, r, nil)
}

// CopyCancel is Copy with a cancellation hook: cancel (nil means never) is
// polled before every batch, bounding the work done after cancellation to one
// DefaultBatchLen batch even when both endpoints are element-at-a-time
// streams — the 1024-op cadence DESIGN.md documents. The merge phase and the
// operator layer use it to honour context cancellation mid-stream.
func CopyCancel[T any](w Writer[T], r Reader[T], cancel func() error) (int64, error) {
	br, bw := AsBatchReader(r), AsBatchWriter(w)
	buf := make([]T, DefaultBatchLen)
	var n int64
	for {
		if cancel != nil {
			if err := cancel(); err != nil {
				return n, err
			}
		}
		k, err := br.ReadBatch(buf)
		if k > 0 {
			if werr := bw.WriteBatch(buf[:k]); werr != nil {
				return n, werr
			}
			n += int64(k)
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// Func adapts a function to the Reader interface.
type Func[T any] func() (T, error)

// Read calls the function.
func (f Func[T]) Read() (T, error) { return f() }

// WriterFunc adapts a function to the Writer interface.
type WriterFunc[T any] func(T) error

// Write calls the function.
func (f WriterFunc[T]) Write(v T) error { return f(v) }
