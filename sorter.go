package repro

import (
	"context"
	"fmt"
	"os"

	"repro/internal/codec"
	"repro/internal/distsort"
	"repro/internal/extsort"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Source yields elements one at a time; Read returns io.EOF at end of
// stream. Any type with this shape (including every Reader in this package
// and the internal stream readers) satisfies it.
type Source[T any] interface {
	Read() (T, error)
}

// Sink consumes elements one at a time.
type Sink[T any] interface {
	Write(T) error
}

// Codec encodes and decodes elements of type T when runs spill to disk.
//
// Append encodes v onto buf and returns the extended slice. Decode reads
// one element from the front of buf, returning it and the number of bytes
// consumed; when buf holds only a prefix of an element it must return
// ErrShortCodec (possibly wrapped), and the storage layer retries with
// more bytes. FixedSize returns the constant encoded size for fixed-width
// codecs and 0 for variable-width ones.
type Codec[T any] interface {
	Append(buf []byte, v T) []byte
	Decode(buf []byte) (v T, n int, err error)
	FixedSize() int
}

// ErrShortCodec is the sentinel a Codec's Decode returns when the buffer
// ends mid-element.
var ErrShortCodec = codec.ErrShort

// Built-in codecs.

// RecordCodec stores Record elements in the library's historical fixed
// 16-byte little-endian layout.
func RecordCodec() Codec[Record] { return codec.Record16{} }

// StringCodec stores strings with a uvarint length prefix, enabling
// variable-length keys.
func StringCodec() Codec[string] { return codec.String{} }

// BytesCodec stores byte slices with a uvarint length prefix.
func BytesCodec() Codec[[]byte] { return codec.Bytes{} }

// Int64Codec stores int64 elements as fixed 8-byte words.
func Int64Codec() Codec[int64] { return codec.Int64{} }

// Uint64Codec stores uint64 elements as fixed 8-byte words.
func Uint64Codec() Codec[uint64] { return codec.Uint64{} }

// Float64Codec stores float64 elements as fixed 8-byte words.
func Float64Codec() Codec[float64] { return codec.Float64{} }

// KeyCodec produces memcmp-ordered normalized key bytes for elements of
// type T, enabling the comparator-free hot path: run batches sort on cached
// key prefixes (pure radix when the key is total and at most 8 bytes) and
// the merge compares normalized keys — via prefix integers or offset-value
// coding — instead of calling the comparator per match. The contract:
//
//	bytes.Compare(AppendKey(nil, a), AppendKey(nil, b)) < 0  ⟺  less(a, b)
//
// so equal key bytes imply a tie under the comparator. Every keyed decision
// is then pointwise equal to the comparator's and the sorted output is
// byte-identical between the keyed and comparator paths.
//
// AppendKey appends v's key bytes onto buf and returns the extended slice.
// FixedKeySize returns the constant key length for fixed-width keys and 0
// for variable-width ones. TotalKey reports whether the key bytes determine
// the element entirely (required before ties may be rearranged, as radix
// sorting does). See DESIGN.md §12 for the encodings and fallback rules.
type KeyCodec[T any] interface {
	AppendKey(buf []byte, v T) []byte
	FixedKeySize() int
	TotalKey() bool
}

// Built-in key codecs, matching the natural (ascending) comparator of each
// type. A Sorter over these element types infers the codec automatically;
// the constructors exist for composite keys and for explicitness.

// Int64KeyCodec orders int64 elements ascending: sign-flipped big-endian.
func Int64KeyCodec() KeyCodec[int64] { return codec.KeyInt64{} }

// Uint64KeyCodec orders uint64 elements ascending: big-endian.
func Uint64KeyCodec() KeyCodec[uint64] { return codec.KeyUint64{} }

// Float64KeyCodec orders float64 elements by `<`, refined to IEEE 754
// totalOrder on ties: -NaN < -Inf < … < -0.0 < +0.0 < … < +Inf < +NaN.
func Float64KeyCodec() KeyCodec[float64] { return codec.KeyFloat64{} }

// StringKeyCodec orders strings lexicographically: the key is the string.
func StringKeyCodec() KeyCodec[string] { return codec.KeyString{} }

// BytesKeyCodec orders byte slices by bytes.Compare: the key is the slice.
func BytesKeyCodec() KeyCodec[[]byte] { return codec.KeyBytes{} }

// RecordKeyCodec orders Records by their int64 Key field ascending,
// matching the package's Record comparator.
func RecordKeyCodec() KeyCodec[Record] { return codec.KeyRecord16{} }

// Composite key field appenders, for assembling multi-field keys with
// CompositeKeyCodec. Fields append most significant first; variable-width
// fields in non-final positions must use the escaped forms so field
// boundaries compare correctly (0x00 escapes to 0x00 0xFF, fields end with
// the terminator 0x00 0x01).

// AppendKeyInt64 appends an ascending int64 field (sign-flipped big-endian).
func AppendKeyInt64(buf []byte, v int64) []byte { return codec.AppendKeyInt64(buf, v) }

// AppendKeyUint64 appends an ascending uint64 field (big-endian).
func AppendKeyUint64(buf []byte, v uint64) []byte { return codec.AppendKeyUint64(buf, v) }

// AppendKeyFloat64 appends an ascending float64 field (IEEE totalOrder).
func AppendKeyFloat64(buf []byte, v float64) []byte { return codec.AppendKeyFloat64(buf, v) }

// AppendKeyString appends an escaped, terminated string field.
func AppendKeyString(buf []byte, v string) []byte { return codec.AppendKeyStringEscaped(buf, v) }

// AppendKeyBytes appends an escaped, terminated byte-slice field.
func AppendKeyBytes(buf []byte, v []byte) []byte { return codec.AppendKeyBytesEscaped(buf, v) }

// CompositeKeyCodec assembles a KeyCodec from per-field appenders, most
// significant field first. fixed is the total key width when every field is
// fixed-width (0 otherwise); total marks keys that determine the element
// entirely. The contract is the caller's: the concatenated fields must
// order exactly as the Sorter's comparator does (New's sampled validation
// rejects codecs that disagree on observed data).
func CompositeKeyCodec[T any](fixed int, total bool, fields ...func(buf []byte, v T) []byte) (KeyCodec[T], error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("repro: CompositeKeyCodec requires at least one field")
	}
	return codec.Composite[T]{Fields: fields, Fixed: fixed, Total: total}, nil
}

// sorterConfig accumulates options before New freezes them into a Sorter.
// The codec and key hooks are stashed untyped so that the Option type stays
// non-generic (ergonomic at call sites); New type-checks them against T.
type sorterConfig struct {
	cfg          Config
	codec        any
	key          any
	keyCodec     any
	noKeys       bool
	elementBytes int
}

// Option configures a Sorter under construction. Options are shared across
// element types; the type-specific ones (WithCodec, WithKey) verify at New
// time that they match the Sorter's element type.
type Option func(*sorterConfig) error

// WithConfig replaces the whole configuration in one call; later options
// still apply on top.
func WithConfig(cfg Config) Option {
	return func(s *sorterConfig) error { s.cfg = cfg; return nil }
}

// WithAlgorithm pins run generation to one of the paper's algorithms —
// TwoWayRS, RS or LoadSortStore — and clears any policy so the chosen one
// really runs. It is a thin alias: the sort resolves the algorithm to the
// "2wrs", "rs" or "lss" policy and runs the same generator WithPolicy
// would. Most callers are better served by WithPolicy, which also offers
// the alternating and quick generators and the adaptive "auto" policy
// (New's default).
func WithAlgorithm(a Algorithm) Option {
	return func(s *sorterConfig) error { s.cfg.Algorithm, s.cfg.Policy = a, ""; return nil }
}

// WithPolicy selects the run-generation policy by name: "2wrs", "rs",
// "alternating" (alias "alt"), "quick", or "auto" (the default for New),
// which probes the input's order structure and switches generators at run
// boundaries when the regime changes mid-stream. Unknown names fail at
// New with an error listing the valid policies (see Policies).
func WithPolicy(name string) Option {
	return func(s *sorterConfig) error { s.cfg.Policy = name; return nil }
}

// WithMemoryRecords sets the memory budget, in elements, shared by run
// generation and (converted to bytes) the merge buffers.
func WithMemoryRecords(n int) Option {
	return func(s *sorterConfig) error { s.cfg.MemoryRecords = n; return nil }
}

// WithFanIn sets the merge fan-in (the paper's optimum is 10).
func WithFanIn(n int) Option {
	return func(s *sorterConfig) error { s.cfg.FanIn = n; return nil }
}

// WithBufferSetup selects which auxiliary 2WRS buffers exist.
func WithBufferSetup(setup BufferSetup) Option {
	return func(s *sorterConfig) error { s.cfg.Setup = setup; return nil }
}

// WithBufferFraction sets the fraction of memory dedicated to the auxiliary
// buffers, in (0, 0.5].
func WithBufferFraction(frac float64) Option {
	return func(s *sorterConfig) error { s.cfg.BufferFraction = frac; return nil }
}

// WithHeuristics selects the 2WRS insertion and release heuristics (§4.2).
func WithHeuristics(in InputHeuristic, out OutputHeuristic) Option {
	return func(s *sorterConfig) error { s.cfg.Input, s.cfg.Output = in, out; return nil }
}

// WithTempDir stores temporary runs in the given directory on the real file
// system; the default keeps them in process memory.
func WithTempDir(dir string) Option {
	return func(s *sorterConfig) error { s.cfg.TempDir = dir; return nil }
}

// WithParallelism bounds the sort's concurrency: above 1, run spilling
// overlaps file I/O on background writer goroutines and independent
// intermediate merges run on a worker pool of this size. 1 forces the
// fully sequential behaviour (the paper's cost model); 0, the default,
// uses GOMAXPROCS. The on-disk run format and the sorted output are
// identical at every setting.
func WithParallelism(n int) Option {
	return func(s *sorterConfig) error {
		if n < 0 {
			return fmt.Errorf("repro: parallelism must be non-negative, got %d", n)
		}
		s.cfg.Parallelism = n
		return nil
	}
}

// WithShards splits the sort into n range-partitioned shards that sort
// concurrently and concatenate in key order, skipping the final cross-shard
// merge (see Config.Shards for the full semantics and the byte-identity
// caveat). 0 and 1 keep the ordinary single-stream sort.
func WithShards(n int) Option {
	return func(s *sorterConfig) error {
		if n < 0 {
			return fmt.Errorf("repro: shards must be non-negative, got %d", n)
		}
		s.cfg.Shards = n
		return nil
	}
}

// WithSeed seeds the randomised heuristics, making a sort deterministic.
func WithSeed(seed int64) Option {
	return func(s *sorterConfig) error { s.cfg.Seed = seed; return nil }
}

// WithStorage configures the spill backend in one call: the compression
// framing and the in-memory tier budget. The zero Storage is the historical
// raw layout with no tier. See Config.Storage for the field semantics and
// Stats.IO for the resulting accounting.
func WithStorage(st Storage) Option {
	return func(s *sorterConfig) error { s.cfg.Storage = st; return nil }
}

// WithCompression selects the spill compression by name: "raw" (the
// default: the historical unframed layout), or "none", "flate", "gzip" —
// which frame every spilled page in a CRC32-checksummed block, compressed
// for the latter two. Any framed mode turns corrupted spill data into a
// checksum error at merge time instead of silently wrong output. Unknown
// names fail at New with an error listing the valid ones (Compressions).
func WithCompression(name string) Option {
	return func(s *sorterConfig) error { s.cfg.Storage.Compression = name; return nil }
}

// WithSpillMemory keeps runs in an in-memory tier of at most budgetBytes
// bytes, overflowing to the temp directory (or the in-process file system)
// mid-write once the tier fills. Stats.IO reports residency and overflows.
func WithSpillMemory(budgetBytes int64) Option {
	return func(s *sorterConfig) error {
		if budgetBytes < 0 {
			return fmt.Errorf("repro: spill memory budget must be non-negative, got %d", budgetBytes)
		}
		s.cfg.Storage.MemoryBudgetBytes = budgetBytes
		return nil
	}
}

// WithManifest makes the sorter's sorts durable: every completed run is
// recorded in a CRC-guarded manifest next to the spill files, and a sort
// that died mid-generation — process kill, cancelled context, failed source
// — can be finished by Sorter.Resume without regenerating the runs that
// already reached storage. See Config.Manifest for the determinism
// requirements and DESIGN.md §14 for the recovery rules. With no TempDir
// the Sorter keeps one in-process file system for all its sorts (rather
// than one per Sort call) so Resume can see what a failed Sort left behind;
// with a TempDir, resumability extends across process restarts.
func WithManifest() Option {
	return func(s *sorterConfig) error { s.cfg.Manifest = true; return nil }
}

// WithCodec supplies the codec used to spill runs to disk. Without it, New
// infers a built-in codec for Record, string, []byte, int64, uint64 and
// float64 element types and fails for anything else.
func WithCodec[T any](c Codec[T]) Option {
	return func(s *sorterConfig) error {
		if c == nil {
			return fmt.Errorf("repro: WithCodec(nil)")
		}
		s.codec = c
		return nil
	}
}

// WithKey supplies a numeric projection of elements onto the real line,
// enabling the paper's numeric 2WRS heuristics (Mean division point,
// victim-gap split, MinDistance output) for custom element types. Without
// it, New infers a projection for numeric element types and Record;
// comparator-only types use order-based fallbacks.
func WithKey[T any](key func(T) float64) Option {
	return func(s *sorterConfig) error {
		s.key = key
		return nil
	}
}

// WithKeyCodec supplies normalized key bytes for the element type, turning
// on the comparator-free hot path (see KeyCodec for the contract and
// effect). Without it, New infers a built-in key codec for Record, string,
// []byte, int64, uint64 and float64 element types; other types sort through
// the comparator with Stats.Keyed reporting false. An explicitly supplied
// codec that disagrees with the comparator on a sampled prefix of the
// input fails the sort with an error — an inferred one falls back to the
// comparator silently (e.g. a descending comparator over int64 elements).
func WithKeyCodec[T any](kc KeyCodec[T]) Option {
	return func(s *sorterConfig) error {
		if kc == nil {
			return fmt.Errorf("repro: WithKeyCodec(nil)")
		}
		s.keyCodec = kc
		s.noKeys = false
		return nil
	}
}

// WithoutKeys disables the keyed hot path even for element types whose key
// codec New would infer: every comparison goes through the comparator. The
// sorted output is byte-identical either way — this exists for ablation
// measurements and as a hedge against a misbehaving codec.
func WithoutKeys() Option {
	return func(s *sorterConfig) error {
		s.noKeys = true
		s.keyCodec = nil
		return nil
	}
}

// WithElementBytes estimates the stored size of one element, used to size
// merge buffers for variable-width codecs (default 32).
func WithElementBytes(n int) Option {
	return func(s *sorterConfig) error {
		if n <= 0 {
			return fmt.Errorf("repro: element bytes must be positive, got %d", n)
		}
		s.elementBytes = n
		return nil
	}
}

// defaultCodecFor infers a built-in codec for well-known element types.
func defaultCodecFor[T any]() (Codec[T], error) {
	var zero T
	var c any
	switch any(zero).(type) {
	case Record:
		c = codec.Record16{}
	case string:
		c = codec.String{}
	case []byte:
		c = codec.Bytes{}
	case int64:
		c = codec.Int64{}
	case uint64:
		c = codec.Uint64{}
	case float64:
		c = codec.Float64{}
	default:
		return nil, fmt.Errorf("repro: no built-in codec for element type %T; pass WithCodec", zero)
	}
	return c.(Codec[T]), nil
}

// defaultKeyCodecFor infers a built-in key codec for well-known element
// types under their natural comparator; nil means the type is opaque and
// sorts comparator-only. Inferred codecs are validated against the actual
// comparator on a sample of the input at sort time and dropped silently on
// disagreement, so inferring for, say, a descending int64 sort is safe.
func defaultKeyCodecFor[T any]() codec.KeyCodec[T] {
	var zero T
	var kc any
	switch any(zero).(type) {
	case Record:
		kc = codec.KeyRecord16{}
	case string:
		kc = codec.KeyString{}
	case []byte:
		kc = codec.KeyBytes{}
	case int64:
		kc = codec.KeyInt64{}
	case uint64:
		kc = codec.KeyUint64{}
	case float64:
		kc = codec.KeyFloat64{}
	default:
		return nil
	}
	return kc.(codec.KeyCodec[T])
}

// defaultKeyFor infers a numeric projection for well-known element types;
// nil (with no error) means the type is comparator-only.
func defaultKeyFor[T any]() func(T) float64 {
	var zero T
	var k any
	switch any(zero).(type) {
	case Record:
		k = record.Key
	case int64:
		k = func(v int64) float64 { return float64(v) }
	case uint64:
		k = func(v uint64) float64 { return float64(v) }
	case float64:
		k = func(v float64) float64 { return v }
	default:
		return nil
	}
	return k.(func(T) float64)
}

// Sorter is a reusable, configured external sorter for elements of type T.
// A Sorter is immutable after New and safe to use for several consecutive
// sorts (concurrent Sort calls each get their own temporary namespace only
// when TempDir is unset; with a shared TempDir, run them sequentially).
type Sorter[T any] struct {
	less          func(a, b T) bool
	cfg           Config
	codec         Codec[T]
	key           func(T) float64
	keyCodec      codec.KeyCodec[T]
	keyedExplicit bool
	elementBytes  int
	fs            vfs.FS // stable spill FS for durable sorters; nil otherwise
}

// New builds a Sorter ordering elements with less. Options supply the
// memory budget, run-generation policy, heuristics, codec and numeric key
// projection; the defaults are a budget of 2^20 elements and the adaptive
// "auto" policy, which picks (and mid-stream, re-picks) the run generator
// matching the input's order structure. WithConfig and WithAlgorithm
// instead select the paper's fixed legacy behaviour. New validates the
// resulting configuration and reports descriptive errors for nonsense
// values.
func New[T any](less func(a, b T) bool, opts ...Option) (*Sorter[T], error) {
	if less == nil {
		return nil, fmt.Errorf("repro: New requires a comparator")
	}
	sc := sorterConfig{cfg: DefaultConfig(1 << 20)}
	sc.cfg.Policy = "auto"
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	if err := sc.cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sorter[T]{less: less, cfg: sc.cfg, elementBytes: sc.elementBytes}
	if sc.codec != nil {
		c, ok := sc.codec.(Codec[T])
		if !ok {
			var zero T
			return nil, fmt.Errorf("repro: WithCodec got %T, which does not encode element type %T", sc.codec, zero)
		}
		s.codec = c
	} else {
		c, err := defaultCodecFor[T]()
		if err != nil {
			return nil, err
		}
		s.codec = c
	}
	if sc.key != nil {
		k, ok := sc.key.(func(T) float64)
		if !ok {
			var zero T
			return nil, fmt.Errorf("repro: WithKey got %T, which does not project element type %T", sc.key, zero)
		}
		s.key = k
	} else {
		s.key = defaultKeyFor[T]()
	}
	switch {
	case sc.noKeys:
		// Comparator-only by request.
	case sc.keyCodec != nil:
		kc, ok := sc.keyCodec.(KeyCodec[T])
		if !ok {
			var zero T
			return nil, fmt.Errorf("repro: WithKeyCodec got %T, which does not key element type %T", sc.keyCodec, zero)
		}
		s.keyCodec = kc
		s.keyedExplicit = true
	default:
		s.keyCodec = defaultKeyCodecFor[T]()
	}
	if s.cfg.Manifest || s.cfg.Resume {
		// Durable sorts need a file system that outlives one Sort call, or
		// there would be nothing for Resume to pick up.
		fs, err := s.cfg.filesystem()
		if err != nil {
			return nil, err
		}
		s.fs = fs
	}
	return s, nil
}

// Config returns the sorter's frozen configuration.
func (s *Sorter[T]) Config() Config { return s.cfg }

// ctxBatch is how many element-at-a-time stream operations pass between
// context checks on the legacy Read/Write paths. The batch paths check at
// every batch boundary instead, which is both cheaper and at least as
// prompt: a batch never exceeds stream.DefaultBatchLen elements.
const ctxBatch = 1024

// ctxReader checks the context at batch boundaries (ReadBatch) or every
// ctxBatch reads (legacy Read), forwarding the batch protocol and the
// Remaining-length hint of the wrapped source.
type ctxReader[T any] struct {
	ctx context.Context
	src Source[T]
	br  stream.BatchReader[T] // lazily built batch view of src
	n   int
}

func (r *ctxReader[T]) Read() (T, error) {
	if r.n%ctxBatch == 0 {
		if err := r.ctx.Err(); err != nil {
			var zero T
			return zero, err
		}
	}
	r.n++
	return r.src.Read()
}

// ReadBatch checks the context once per batch, then delegates: directly to
// the source when it speaks the batch protocol itself, otherwise through
// the element-loop adapter.
func (r *ctxReader[T]) ReadBatch(dst []T) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	if r.br == nil {
		if br, ok := r.src.(stream.BatchReader[T]); ok {
			r.br = br
		} else {
			r.br = stream.AsBatchReader[T](streamReader[T]{r.src})
		}
	}
	return r.br.ReadBatch(dst)
}

// Remaining forwards the wrapped source's length hint; -1 means unknown.
func (r *ctxReader[T]) Remaining() int {
	if s, ok := r.src.(stream.Sized); ok {
		return s.Remaining()
	}
	return -1
}

// streamReader adapts the public Source to the internal stream.Reader
// interface for the batch adapters.
type streamReader[T any] struct{ src Source[T] }

func (s streamReader[T]) Read() (T, error) { return s.src.Read() }

// ctxWriter checks the context at batch boundaries (WriteBatch) or every
// ctxBatch writes (legacy Write).
type ctxWriter[T any] struct {
	ctx context.Context
	dst Sink[T]
	bw  stream.BatchWriter[T]
	n   int
}

func (w *ctxWriter[T]) Write(v T) error {
	if w.n%ctxBatch == 0 {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	w.n++
	return w.dst.Write(v)
}

// WriteBatch checks the context once per batch, then delegates: directly
// to the sink when it speaks the batch protocol itself, otherwise through
// the element-loop adapter.
func (w *ctxWriter[T]) WriteBatch(src []T) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if w.bw == nil {
		if bw, ok := w.dst.(stream.BatchWriter[T]); ok {
			w.bw = bw
		} else {
			w.bw = stream.AsBatchWriter[T](streamWriter[T]{w.dst})
		}
	}
	return w.bw.WriteBatch(src)
}

// streamWriter adapts the public Sink to the internal stream.Writer
// interface for the batch adapters.
type streamWriter[T any] struct{ dst Sink[T] }

func (s streamWriter[T]) Write(v T) error { return s.dst.Write(v) }

// filesystem resolves the configured run storage.
func (c Config) filesystem() (vfs.FS, error) {
	if c.TempDir == "" {
		return vfs.NewMemFS(), nil
	}
	if err := os.MkdirAll(c.TempDir, 0o755); err != nil {
		return nil, fmt.Errorf("repro: temp dir: %w", err)
	}
	return vfs.NewOSFS(c.TempDir), nil
}

// Sort reads every element from src, sorts them externally within the
// configured memory budget, and writes the ascending result to dst. The
// context is honoured between batches in both phases: a cancelled context
// aborts the sort promptly with ctx.Err().
func (s *Sorter[T]) Sort(ctx context.Context, src Source[T], dst Sink[T]) (Stats, error) {
	return s.sort(ctx, src, dst, false)
}

// Resume finishes a durable sort that a previous Sort (in this process or,
// with a TempDir, in an earlier one) left interrupted: completed runs are
// validated against the manifest and reused, the input is rewound to the
// last committed run boundary, and generation continues from there. src
// must re-serve the original input from the start — Resume skips what the
// committed runs already consumed. The output is byte-identical to what the
// uninterrupted sort would have produced; Stats.RunsRecovered reports how
// many runs were reused. When no manifest exists (nothing to resume, or a
// crash predated the first run) Resume simply runs a fresh durable sort. A
// manifest written under a different codec, compression or generation
// configuration fails with ErrManifestMismatch rather than mixing
// incompatible state.
func (s *Sorter[T]) Resume(ctx context.Context, src Source[T], dst Sink[T]) (Stats, error) {
	if !s.cfg.Manifest && !s.cfg.Resume {
		return Stats{}, fmt.Errorf("repro: Resume requires a Sorter built with WithManifest")
	}
	return s.sort(ctx, src, dst, true)
}

func (s *Sorter[T]) sort(ctx context.Context, src Source[T], dst Sink[T], resume bool) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fs := s.fs
	if fs == nil {
		var err error
		fs, err = s.cfg.filesystem()
		if err != nil {
			return Stats{}, err
		}
	}
	icfg := s.cfg.toInternal()
	icfg.Cancel = ctx.Err
	if resume {
		icfg.Resume = true
	}
	ops := extsort.Ops[T]{
		Less:          s.less,
		Codec:         s.codec,
		Key:           s.key,
		KeyCodec:      s.keyCodec,
		KeyedExplicit: s.keyedExplicit,
		ElementBytes:  s.elementBytes,
	}
	reader := &ctxReader[T]{ctx: ctx, src: src}
	writer := &ctxWriter[T]{ctx: ctx, dst: dst}
	var stats Stats
	var err error
	if s.cfg.Shards > 1 {
		stats, err = distsort.Sort[T](reader, writer, fs,
			distsort.Config{Shards: s.cfg.Shards, Extsort: icfg}, ops)
	} else {
		stats, err = extsort.Sort[T](reader, writer, fs, icfg, ops)
	}
	if err != nil && ctx.Err() != nil {
		return stats, ctx.Err()
	}
	return stats, err
}

// SortSlice sorts a slice through the external-sort machinery and returns a
// new sorted slice; a convenience for small inputs, tests and examples. The
// output slice is pre-sized to the input length.
func (s *Sorter[T]) SortSlice(ctx context.Context, vals []T) ([]T, Stats, error) {
	out := stream.SliceWriter[T]{Vals: make([]T, 0, len(vals))}
	stats, err := s.Sort(ctx, stream.NewSliceReader(vals), &out)
	return out.Vals, stats, err
}
