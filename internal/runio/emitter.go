package runio

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// Emitter centralises the parameters run-generation algorithms need to
// create run files: the spill storage backend, a name allocator, the
// element codec and comparator, and buffer/layout sizes.
type Emitter[T any] struct {
	// Store is the spill backend run files are written to and read from:
	// the raw pass-through over a vfs.FS, or a framed backend with
	// checksums, compression and tiering (see internal/storage).
	Store storage.Backend
	// Namer allocates unique file names.
	Namer *Namer
	// Codec encodes elements for storage.
	Codec codec.Codec[T]
	// Less orders elements; writers use it to validate run order.
	Less func(a, b T) bool
	// WriteBuf is the writer buffer size in bytes (0: DefaultPageSize).
	WriteBuf int
	// PageSize and PagesPerFile configure the backward file format
	// (0: defaults).
	PageSize int
	// PagesPerFile is the backward chain file length in pages (0: default).
	PagesPerFile int
	// Async moves forward-writer page flushes onto a background goroutine
	// (double-buffered), overlapping run-generation and merge CPU work with
	// file I/O. The driver enables it when Parallelism > 1; the bytes
	// written are identical either way.
	Async bool
	// KeyCodec, when set, supplies memcmp-ordered normalized key bytes
	// consistent with Less (see codec.KeyCodec). Run generators then cache
	// key prefixes in their heaps and sort batches on the normalized bytes,
	// and the merge's loser tree compares keys instead of calling Less; the
	// sorted output is byte-identical either way. The driver sets it only
	// after the codec passes the sampled order check.
	KeyCodec codec.KeyCodec[T]
	// Checksums, when set, makes every writer the emitter creates track the
	// order-insensitive content checksum of its stream (Writer.Track) and
	// records it under the stream's name for Sum. Resumable sorts use the
	// sums to commit run content in the manifest; off (the default) no
	// per-element CRC is ever computed.
	Checksums bool

	mu   sync.Mutex
	sums map[string]uint64
	open map[aborter]struct{}
}

// aborter is the live-writer handle the emitter tracks: anything that can
// be force-closed on a failure path.
type aborter interface{ abort() }

// NewEmitter returns an Emitter with default sizes writing through the raw
// (historical, pass-through) backend on fs.
func NewEmitter[T any](fs vfs.FS, prefix string, c codec.Codec[T], less func(a, b T) bool) *Emitter[T] {
	return NewEmitterOn[T](storage.NewRaw(fs), prefix, c, less)
}

// NewEmitterOn returns an Emitter with default sizes writing through the
// given spill backend.
func NewEmitterOn[T any](st storage.Backend, prefix string, c codec.Codec[T], less func(a, b T) bool) *Emitter[T] {
	return &Emitter[T]{Store: st, Namer: NewNamer(prefix), Codec: c, Less: less}
}

// RecordEmitter returns an Emitter for the historical fixed 16-byte Record
// streams, the instantiation every legacy caller uses.
func RecordEmitter(fs vfs.FS, prefix string) *Emitter[record.Record] {
	return NewEmitter[record.Record](fs, prefix, codec.Record16{}, record.Less)
}

// PrefixFunc returns a closure computing the uint64 normalized-key prefix
// of an element, or nil when the emitter carries no KeyCodec. Each closure
// owns its scratch buffer: callers on different goroutines take their own.
func (e *Emitter[T]) PrefixFunc() func(T) uint64 {
	if e.KeyCodec == nil {
		return nil
	}
	return codec.PrefixFunc(e.KeyCodec)
}

// Forward creates a fresh forward run file; role distinguishes streams in
// file names (e.g. "rs", "s1").
func (e *Emitter[T]) Forward(role string) (string, *Writer[T], error) {
	name := e.Namer.Next(role)
	w, err := e.NewWriter(name, e.WriteBuf)
	return name, w, err
}

// NewWriter creates a forward writer on the named file with an explicit
// buffer size, honouring the emitter's Async setting. Unlike Forward it
// does not touch the Namer, so concurrent merge workers can use it with
// pre-allocated names.
func (e *Emitter[T]) NewWriter(name string, bufBytes int) (*Writer[T], error) {
	w, err := NewWriter(e.Store, name, bufBytes, e.Codec, e.Less)
	if err != nil {
		return nil, err
	}
	if e.Async {
		w.Async()
	}
	if e.Checksums {
		w.Track(func(_ int64, sum uint64) { e.noteSum(name, sum) })
	}
	w.onFinish = func() { e.untrackOpen(w) }
	e.trackOpen(w)
	return w, nil
}

func (e *Emitter[T]) trackOpen(w aborter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.open == nil {
		e.open = make(map[aborter]struct{})
	}
	e.open[w] = struct{}{}
}

func (e *Emitter[T]) untrackOpen(w aborter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.open, w)
}

// AbortOpen force-closes every forward writer the emitter created that is
// still open: buffered pages are dropped, background flusher goroutines
// are joined, and the underlying files closed. Failure paths call it
// before sweeping (or abandoning) spill files, so no flusher is still
// appending to a file being removed — the race a run generator invites
// when a source error makes it abandon its current writer mid-run.
func (e *Emitter[T]) AbortOpen() {
	e.mu.Lock()
	ws := make([]aborter, 0, len(e.open))
	for w := range e.open {
		ws = append(ws, w)
	}
	e.open = nil
	e.mu.Unlock()
	for _, w := range ws {
		w.abort()
	}
}

// Backward creates a fresh backward (decreasing) stream.
func (e *Emitter[T]) Backward(role string) (string, *BackwardWriter[T], error) {
	name := e.Namer.Next(role)
	w, err := NewBackwardWriter(e.Store, name, e.PageSize, e.PagesPerFile, e.Codec, e.Less)
	if err == nil && e.Checksums {
		w.Track(func(_ int64, sum uint64) { e.noteSum(name, sum) })
	}
	return name, w, err
}

// noteSum records a closed stream's content checksum under its name.
func (e *Emitter[T]) noteSum(name string, sum uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sums == nil {
		e.sums = make(map[string]uint64)
	}
	e.sums[name] = sum
}

// Sum returns the content checksum recorded for the named stream, if the
// emitter ran with Checksums on and the stream's writer closed cleanly.
func (e *Emitter[T]) Sum(name string) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sum, ok := e.sums[name]
	return sum, ok
}

// Open returns an ascending reader over the run using the emitter's codec
// and comparator.
func (e *Emitter[T]) Open(r Run, bufBytes int) (ReadCloser[T], error) {
	return OpenRun(e.Store, r, bufBytes, e.Codec, e.Less)
}
