package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"

	"repro"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/policy"
)

// workload is one benchmark input plus the sorter configuration it runs
// under. The same workload value drives the timed sort (public repro.New /
// Sorter.Sort) and the traced sort (extsort or distsort called directly).
type workload[T any] struct {
	name        string
	records     int
	memory      int // records, shared by all shards
	shards      int // 0 = single-stream sort
	policy      string
	compression string // "" = raw spill
	manifest    bool
	keyed       bool // false adds WithoutKeys
	less        func(a, b T) bool
	codec       repro.Codec[T]
	keyCodec    codec.KeyCodec[T] // what New infers for T; used when keyed
	key         func(T) float64   // what New infers for T
	generate    func(seed int64, n int, emit func(T) error) error
}

const fanIn = 10

// Workload names, in the order BENCHMARK.json lists them.
var workloadNames = []string{"records_2wrs", "strings_quick_flate", "records_sharded_durable"}

func recordsWorkload(name string) *workload[repro.Record] {
	w := &workload[repro.Record]{
		name:     name,
		records:  8 << 20,
		memory:   1 << 16,
		policy:   "2wrs",
		keyed:    true,
		less:     func(a, b repro.Record) bool { return a.Key < b.Key },
		codec:    repro.RecordCodec(),
		keyCodec: codec.KeyRecord16{},
		key:      func(r repro.Record) float64 { return float64(r.Key) },
		generate: func(seed int64, n int, emit func(repro.Record) error) error {
			src := repro.DatasetReader(repro.DatasetRandom, n, seed)
			for {
				r, err := src.Read()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if err := emit(r); err != nil {
					return err
				}
			}
		},
	}
	if name == "records_sharded_durable" {
		w.shards = 2
		w.manifest = true
		w.keyed = false
	}
	return w
}

// pathPrefixes are the shared heads of the string keys: five directory-like
// prefixes, so adjacent keys share long prefixes as real path keys do.
var pathPrefixes = []string{
	"/var/log/app/",
	"/srv/data/events/",
	"/home/user/cache/",
	"/opt/store/shard-",
	"/usr/share/items/",
}

func stringsWorkload() *workload[[]byte] {
	return &workload[[]byte]{
		name:        "strings_quick_flate",
		records:     4 << 20,
		memory:      1 << 16,
		policy:      "quick",
		compression: "flate",
		keyed:       true,
		less:        func(a, b []byte) bool { return bytes.Compare(a, b) < 0 },
		codec:       repro.BytesCodec(),
		keyCodec:    codec.KeyBytes{},
		generate:    genPathKeys,
	}
}

// genPathKeys emits n keys of 25–40 bytes: a shared prefix, a random
// decimal number, a slash and a random hex tail filling the drawn length.
func genPathKeys(seed int64, n int, emit func([]byte) error) error {
	const hexDigits = "0123456789abcdef"
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		want := 25 + rng.Intn(16)
		k := make([]byte, 0, want)
		k = append(k, pathPrefixes[rng.Intn(len(pathPrefixes))]...)
		k = strconv.AppendInt(k, int64(rng.Intn(100000)), 10)
		k = append(k, '/')
		for len(k) < want {
			k = append(k, hexDigits[rng.Intn(16)])
		}
		if err := emit(k[:want]); err != nil {
			return err
		}
	}
	return nil
}

// options are the public options the timed sort passes to repro.New.
func (w *workload[T]) options(tempDir string) []repro.Option {
	opts := []repro.Option{
		repro.WithPolicy(w.policy),
		repro.WithMemoryRecords(w.memory),
		repro.WithFanIn(fanIn),
		repro.WithTempDir(tempDir),
	}
	if w.compression != "" {
		opts = append(opts, repro.WithCompression(w.compression))
	}
	if w.shards > 1 {
		opts = append(opts, repro.WithShards(w.shards))
	}
	if w.manifest {
		opts = append(opts, repro.WithManifest())
	}
	if !w.keyed {
		opts = append(opts, repro.WithoutKeys())
	}
	return opts
}

// internalConfig maps the configuration repro.New froze for this workload
// onto the driver config the public Sort hands to extsort and distsort.
// The traced sort uses it; the cross-check of exact counts between the two
// sorts proves the mapping faithful.
func (w *workload[T]) internalConfig(tempDir string) (extsort.Config, error) {
	s, err := repro.New(w.less, w.options(tempDir)...)
	if err != nil {
		return extsort.Config{}, err
	}
	c := s.Config()
	kind, err := policy.Parse(c.Policy)
	if err != nil {
		return extsort.Config{}, err
	}
	return extsort.Config{
		Algorithm:   c.Algorithm,
		Policy:      kind,
		Memory:      c.MemoryRecords,
		FanIn:       c.FanIn,
		Parallelism: c.Parallelism,
		Storage:     c.Storage,
		Manifest:    c.Manifest,
		TWRS: core.Config{
			Memory:     c.MemoryRecords,
			Setup:      c.Setup,
			BufferFrac: c.BufferFraction,
			Input:      c.Input,
			Output:     c.Output,
			Seed:       c.Seed,
		},
	}, nil
}

// generatorMemory is the memory budget one run generator works with: the
// whole budget, or one shard's share of it.
func (w *workload[T]) generatorMemory() int {
	if w.shards > 1 {
		return w.memory / w.shards
	}
	return w.memory
}

// writeInput generates the workload's input for seed and writes it to path
// in the workload codec's encoding; it returns the encoded input size.
func (w *workload[T]) writeInput(path string, seed int64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	sink := newFileSink(f, w.codec)
	if err := w.generate(seed, w.records, sink.Write); err != nil {
		f.Close()
		return 0, err
	}
	if err := sink.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// fileSource streams codec-encoded elements from a file. It speaks the
// batch protocol and reports the elements left, as a file reader of known
// length would.
type fileSource[T any] struct {
	f         *os.File
	c         repro.Codec[T]
	buf       []byte
	lo, hi    int
	eof       bool
	remaining int
}

func openSource[T any](path string, c repro.Codec[T], records int) (*fileSource[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &fileSource[T]{f: f, c: c, buf: make([]byte, 1<<20), remaining: records}, nil
}

// next decodes one element, refilling the window when it ends mid-element.
func (s *fileSource[T]) next() (T, error) {
	for {
		v, n, err := s.c.Decode(s.buf[s.lo:s.hi])
		if err == nil {
			s.lo += n
			s.remaining--
			return v, nil
		}
		var zero T
		if !errors.Is(err, repro.ErrShortCodec) {
			return zero, err
		}
		if s.eof {
			if s.lo == s.hi {
				return zero, io.EOF
			}
			return zero, fmt.Errorf("perfbench: truncated element at end of input")
		}
		s.hi = copy(s.buf, s.buf[s.lo:s.hi])
		s.lo = 0
		m, rerr := io.ReadFull(s.f, s.buf[s.hi:])
		s.hi += m
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			s.eof = true
		} else if rerr != nil {
			return zero, rerr
		}
	}
}

func (s *fileSource[T]) Read() (T, error) { return s.next() }

func (s *fileSource[T]) ReadBatch(dst []T) (int, error) {
	for i := range dst {
		v, err := s.next()
		if err != nil {
			if err == io.EOF && i > 0 {
				return i, nil
			}
			return i, err
		}
		dst[i] = v
	}
	return len(dst), nil
}

func (s *fileSource[T]) Remaining() int { return s.remaining }

func (s *fileSource[T]) Close() error { return s.f.Close() }

// fileSink writes codec-encoded elements through a 1 MiB buffer.
type fileSink[T any] struct {
	f   *os.File
	w   *bufio.Writer
	c   repro.Codec[T]
	enc []byte
}

func newFileSink[T any](f *os.File, c repro.Codec[T]) *fileSink[T] {
	return &fileSink[T]{f: f, w: bufio.NewWriterSize(f, 1<<20), c: c}
}

func (s *fileSink[T]) Write(v T) error {
	s.enc = s.c.Append(s.enc[:0], v)
	_, err := s.w.Write(s.enc)
	return err
}

func (s *fileSink[T]) WriteBatch(src []T) error {
	for _, v := range src {
		if err := s.Write(v); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the file, reporting the first error.
func (s *fileSink[T]) Close() error {
	ferr := s.w.Flush()
	cerr := s.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
