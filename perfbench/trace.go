package main

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// span is one interval recorded by the benchmark's wrappers (or imported
// from the program's own tracer). Times are nanoseconds since the
// recorder's epoch.
type span struct {
	id, parent, sortID int64
	layer              string // e.g. "stream.input", "vfs.write", "program.merge"
	lane               int    // shard the span belongs to; -1 for none
	file               string // vfs spans: the file operated on
	start, end         int64
	n                  int64 // records (stream) or bytes (vfs) moved
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps every span of one traced sort in memory.
type recorder struct {
	epoch  time.Time
	sortID int64
	ids    atomic.Int64
	phase  atomic.Int64 // id of the benchmark span the wrappers' spans belong to
	mu     sync.Mutex
	spans  []span
}

func newRecorder(sortID int64) *recorder {
	return &recorder{epoch: time.Now(), sortID: sortID}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	s.id = r.ids.Add(1)
	s.sortID = r.sortID
	if s.parent == 0 {
		s.parent = r.phase.Load()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// begin opens a benchmark span and makes it the parent of wrapper spans
// until the returned function closes it.
func (r *recorder) begin(layer string) func() {
	start := r.now()
	id := r.ids.Add(1)
	prev := r.phase.Swap(id)
	return func() {
		r.phase.Store(prev)
		r.mu.Lock()
		r.spans = append(r.spans, span{id: id, parent: prev, sortID: r.sortID, layer: layer, lane: -1, start: start, end: r.now()})
		r.mu.Unlock()
	}
}

// tracer returns a program tracer whose clock is the recorder's, so the
// program's spans line up with the wrappers'.
func (r *recorder) tracer() *obs.Tracer {
	return obs.NewWithClock(func() time.Duration { return time.Since(r.epoch) })
}

// importProgram copies the program tracer's spans in, keeping their names
// under a "program." layer and their parent links.
func (r *recorder) importProgram(t *obs.Tracer) {
	pd := t.Spans()
	base := r.ids.Add(int64(len(pd)) + 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range pd {
		s := span{id: base + d.ID, sortID: r.sortID, layer: "program." + d.Name, lane: -1,
			start: int64(d.Start), end: int64(d.Start + d.Duration)}
		if d.Parent != 0 {
			s.parent = base + d.Parent
		}
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) byLayer(layer string) []span {
	var out []span
	for _, s := range r.spans {
		if s.layer == layer {
			out = append(out, s)
		}
	}
	return out
}

// covered returns how much of [start, end) the given spans cover, counting
// overlapping spans once.
func covered(start, end int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.start, start), min(s.end, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// counter is an atomic count on its own cache line, so counters bumped
// from different goroutines do not share a line.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// lanes attributes comparator calls to a shard and to the phase that shard
// is in. A shard switches from generation to merge when its first run file
// is opened for reading; the comparator learns an element's shard from the
// shard boundaries the timed sort's output revealed.
type lanes[T any] struct {
	less     func(a, b T) bool
	bounds   []T // largest element of every shard but the last
	merging  []atomic.Bool
	firstOpn []atomic.Int64
	genCmp   []counter
	mergeCmp []counter
}

func newLanes[T any](less func(a, b T) bool, bounds []T) *lanes[T] {
	n := len(bounds) + 1
	return &lanes[T]{less: less, bounds: bounds, merging: make([]atomic.Bool, n),
		firstOpn: make([]atomic.Int64, n), genCmp: make([]counter, n), mergeCmp: make([]counter, n)}
}

func (l *lanes[T]) of(v T) int {
	i := 0
	for i < len(l.bounds) && l.less(l.bounds[i], v) {
		i++
	}
	return i
}

// compare is the comparator wrapper handed to the sort.
func (l *lanes[T]) compare(a, b T) bool {
	i := l.of(a)
	if l.merging[i].Load() {
		l.mergeCmp[i].Add(1)
	} else {
		l.genCmp[i].Add(1)
	}
	return l.less(a, b)
}

func (l *lanes[T]) markOpen(lane int, at int64) {
	if lane < 0 || lane >= len(l.merging) {
		return
	}
	if l.firstOpn[lane].CompareAndSwap(0, at) {
		l.merging[lane].Store(true)
	}
}

func sumCounters(cs []counter) int64 {
	var t int64
	for i := range cs {
		t += cs[i].Load()
	}
	return t
}

// laneOf maps a spill file name to its shard: distsort namespaces shard
// files as "<prefix>-sNN-…" (or "<prefix>-sNN.manifest"); unsharded sorts
// use lane 0.
func laneOf(name string, sharded bool) int {
	if !sharded {
		return 0
	}
	i := strings.Index(name, "-s")
	if i < 0 || len(name) < i+4 {
		return -1
	}
	n, err := strconv.Atoi(name[i+2 : i+4])
	if err != nil {
		return -1
	}
	return n
}

// tracedSource records every read call as a "stream.input" span.
type tracedSource[T any] struct {
	src   *fileSource[T]
	rec   *recorder
	lane  int // 0 when the sort reads the source itself; -1 when distsort's partitioner does
	calls int64
	n     int64
}

func (s *tracedSource[T]) ReadBatch(dst []T) (int, error) {
	t0 := s.rec.now()
	n, err := s.src.ReadBatch(dst)
	s.rec.add(span{layer: "stream.input", lane: s.lane, start: t0, end: s.rec.now(), n: int64(n)})
	s.calls++
	s.n += int64(n)
	return n, err
}

func (s *tracedSource[T]) Read() (T, error) {
	var one [1]T
	_, err := s.ReadBatch(one[:])
	return one[0], err
}

func (s *tracedSource[T]) Remaining() int { return s.src.Remaining() }

// tracedSink records every write call as a "stream.output" span.
type tracedSink[T any] struct {
	dst   *fileSink[T]
	rec   *recorder
	lane  int
	calls int64
	n     int64
}

func (s *tracedSink[T]) WriteBatch(src []T) error {
	t0 := s.rec.now()
	err := s.dst.WriteBatch(src)
	s.rec.add(span{layer: "stream.output", lane: s.lane, start: t0, end: s.rec.now(), n: int64(len(src))})
	s.calls++
	s.n += int64(len(src))
	return err
}

func (s *tracedSink[T]) Write(v T) error { return s.WriteBatch([]T{v}) }

var (
	_ stream.BatchReader[int] = (*tracedSource[int])(nil)
	_ stream.Sized            = (*tracedSource[int])(nil)
	_ stream.BatchWriter[int] = (*tracedSink[int])(nil)
)

// countingCodec counts element encodes and decodes.
type countingCodec[T any] struct {
	codec.Codec[T]
	encodes, decodes *counter
}

func (c countingCodec[T]) Append(buf []byte, v T) []byte {
	c.encodes.Add(1)
	return c.Codec.Append(buf, v)
}

func (c countingCodec[T]) Decode(buf []byte) (T, int, error) {
	c.decodes.Add(1)
	return c.Codec.Decode(buf)
}

// prefixKeyCodec is the key-codec interface plus the prefix fast path the
// built-in key codecs offer; the wrapper keeps both so the traced sort takes
// the same path as the timed one.
type prefixKeyCodec[T any] interface {
	codec.KeyCodec[T]
	codec.Prefixer[T]
}

// countingKeyCodec counts key derivations: full keys and 8-byte prefixes.
type countingKeyCodec[T any] struct {
	prefixKeyCodec[T]
	keys *counter
}

func (k countingKeyCodec[T]) AppendKey(buf []byte, v T) []byte {
	k.keys.Add(1)
	return k.prefixKeyCodec.AppendKey(buf, v)
}

func (k countingKeyCodec[T]) KeyPrefix(v T) uint64 {
	k.keys.Add(1)
	return k.prefixKeyCodec.KeyPrefix(v)
}

// tracedFS wraps the spill file system: it records every positional read
// and write as a span, counts created files, tracks the bytes live on disk
// and tells the comparator lanes when a shard starts reading its runs back.
type tracedFS struct {
	vfs.FS
	rec     *recorder
	sharded bool
	onOpen  func(lane int, at int64)

	mu       sync.Mutex
	sizes    map[string]*liveFile
	live     int64
	peakLive int64
	created  int64
}

type liveFile struct{ size int64 }

func newTracedFS(base vfs.FS, rec *recorder, sharded bool, onOpen func(int, int64)) *tracedFS {
	return &tracedFS{FS: base, rec: rec, sharded: sharded, onOpen: onOpen, sizes: map[string]*liveFile{}}
}

func (fs *tracedFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	if old, ok := fs.sizes[name]; ok {
		fs.live -= old.size
	}
	lf := &liveFile{}
	fs.sizes[name] = lf
	fs.created++
	fs.mu.Unlock()
	return &tracedFile{File: f, fs: fs, name: name, lane: laneOf(name, fs.sharded), lf: lf}, nil
}

func (fs *tracedFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	lane := laneOf(name, fs.sharded)
	if !strings.HasSuffix(name, ".manifest") {
		fs.onOpen(lane, fs.rec.now())
	}
	fs.mu.Lock()
	lf := fs.sizes[name]
	fs.mu.Unlock()
	return &tracedFile{File: f, fs: fs, name: name, lane: lane, lf: lf}, nil
}

func (fs *tracedFS) Remove(name string) error {
	if err := fs.FS.Remove(name); err != nil {
		return err
	}
	fs.mu.Lock()
	if lf, ok := fs.sizes[name]; ok {
		fs.live -= lf.size
		lf.size = 0
		delete(fs.sizes, name)
	}
	fs.mu.Unlock()
	return nil
}

type tracedFile struct {
	vfs.File
	fs   *tracedFS
	name string
	lane int
	lf   *liveFile // nil for files created before tracing began
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := f.fs.rec.now()
	n, err := f.File.WriteAt(p, off)
	f.fs.rec.add(span{layer: "vfs.write", lane: f.lane, file: f.name, start: t0, end: f.fs.rec.now(), n: int64(n)})
	if f.lf != nil {
		f.fs.mu.Lock()
		if end := off + int64(n); end > f.lf.size {
			f.fs.live += end - f.lf.size
			f.lf.size = end
			f.fs.peakLive = max(f.fs.peakLive, f.fs.live)
		}
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := f.fs.rec.now()
	n, err := f.File.ReadAt(p, off)
	f.fs.rec.add(span{layer: "vfs.read", lane: f.lane, file: f.name, start: t0, end: f.fs.rec.now(), n: int64(n)})
	return n, err
}
