// Package extsort ties run generation and the merge phase into a complete
// external sort, the end-to-end system the paper's Chapter 6 measures. The
// driver is generic over the element type: an Ops bundle supplies the
// comparator, the storage codec and (optionally) a numeric key projection
// for the 2WRS heuristics.
package extsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/manifest"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Algorithm is the legacy name for the run generator: a thin alias that
// withDefaults resolves to the matching policy kind when Config.Policy is
// unset. Only the paper's three algorithms have one.
type Algorithm int

// The run generation algorithms this library implements.
const (
	// TwoWayRS is two-way replacement selection, the paper's contribution.
	TwoWayRS Algorithm = iota
	// RS is classic replacement selection (Goetz 1963).
	RS
	// LoadSortStore fills memory, sorts and stores (§2.1.1).
	LoadSortStore
)

// algKinds maps each Algorithm onto the policy kind it aliases.
var algKinds = map[Algorithm]policy.Kind{
	TwoWayRS:      policy.TwoWayRS,
	RS:            policy.RS,
	LoadSortStore: policy.LSS,
}

// String returns the name of the policy the algorithm aliases.
func (a Algorithm) String() string {
	if k, ok := algKinds[a]; ok {
		return k.String()
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm resolves a CLI name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, k := range algKinds {
		if strings.EqualFold(s, k.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("extsort: unknown algorithm %q (want 2wrs, rs or lss)", s)
}

// Ops bundles the element-type-specific hooks a sort needs.
type Ops[T any] struct {
	// Less orders elements; required.
	Less func(a, b T) bool
	// Codec stores elements in run files; required.
	Codec codec.Codec[T]
	// Key optionally projects elements onto the real line for the numeric
	// 2WRS heuristics; nil selects comparator-only fallbacks.
	Key func(T) float64
	// KeyCodec optionally produces memcmp-ordered normalized key bytes
	// agreeing with Less (internal/codec). When set and consistent with
	// Less on a sampled prefix of the input, both phases run keyed: run
	// generation caches key prefixes (radix-sorting quick batches) and the
	// merge compares normalized keys instead of calling Less per match. The
	// sorted output is byte-identical either way.
	KeyCodec codec.KeyCodec[T]
	// KeyedExplicit marks KeyCodec as caller-supplied rather than inferred:
	// a sampled order disagreement between KeyCodec and Less then fails the
	// sort instead of silently falling back to the comparator.
	KeyedExplicit bool
	// ElementBytes estimates the stored size of one element for converting
	// the record-denominated memory budget into merge buffer bytes. 0 uses
	// Codec.FixedSize, falling back to 32 for variable-width codecs.
	ElementBytes int
}

func (o Ops[T]) validate() error {
	if o.Less == nil {
		return fmt.Errorf("extsort: Ops.Less must be set")
	}
	if o.Codec == nil {
		return fmt.Errorf("extsort: Ops.Codec must be set")
	}
	return nil
}

// backwardPages sizes backward chain files to the data a run's descending
// streams actually carry (about one memory-load of elements each), instead
// of the thesis' fixed k=1000 pages. Backward files are materialised at
// full size and written from the tail, so a file far larger than its
// stream wastes space — and, on the in-memory FS, real zeroed allocation —
// per run. Streams that outgrow one file simply chain to the next, so this
// is pure tuning: the format is unchanged.
func backwardPages(memory, elemBytes, pageSize int) int {
	if pageSize <= 0 {
		pageSize = runio.DefaultPageSize
	}
	pages := (2*memory*elemBytes+pageSize-1)/pageSize + 2
	if pages < 4 {
		pages = 4
	}
	if pages > runio.DefaultPagesPerFile {
		pages = runio.DefaultPagesPerFile
	}
	return pages
}

// elementBytes resolves the per-element size estimate.
func (o Ops[T]) elementBytes() int {
	if o.ElementBytes > 0 {
		return o.ElementBytes
	}
	if f := o.Codec.FixedSize(); f > 0 {
		return f
	}
	return 32
}

// RecordOps returns the Ops for the historical fixed 16-byte Record
// streams, the instantiation every legacy caller uses. The key codec is
// inferred — record.Less is the natural int64 order on Key — so legacy
// Record sorts run keyed automatically.
func RecordOps() Ops[record.Record] {
	return Ops[record.Record]{Less: record.Less, Codec: codec.Record16{}, Key: record.Key, KeyCodec: codec.KeyRecord16{}}
}

// keySampleLen is how many leading elements the keyed path inspects before
// trusting a KeyCodec: every ordered pair of the sample is checked both
// ways against the comparator, which catches the realistic failure (a
// comparator that is not the codec's natural order, e.g. descending)
// within the first few distinct values.
const keySampleLen = 64

// applyKeyCodec decides whether this sort runs keyed: it samples the head
// of src, checks the codec's byte order against the comparator on every
// sampled pair, and either arms the emitter (consistent), fails the sort
// (explicit codec, inconsistent) or falls back to the comparator silently
// (inferred codec, inconsistent — e.g. a descending comparator over the
// natural int64 codec). The returned reader re-serves the sample.
func applyKeyCodec[T any](src stream.Reader[T], em *runio.Emitter[T], ops Ops[T]) (stream.Reader[T], bool, error) {
	if ops.KeyCodec == nil {
		return src, false, nil
	}
	sample := make([]T, 0, keySampleLen)
	br := stream.AsBatchReader(src)
	for len(sample) < keySampleLen {
		n, err := br.ReadBatch(sample[len(sample):keySampleLen])
		if err != nil && err != io.EOF {
			return nil, false, err
		}
		sample = sample[:len(sample)+n]
		if err == io.EOF || n == 0 {
			break
		}
	}
	out := stream.NewPushback(sample, br)
	if !codec.KeyOrderConsistent(ops.KeyCodec, ops.Less, sample) {
		if ops.KeyedExplicit {
			return nil, false, fmt.Errorf("extsort: KeyCodec disagrees with Less on sampled input: normalized key order must match the comparator")
		}
		return out, false, nil
	}
	em.KeyCodec = ops.KeyCodec
	return out, true, nil
}

// Config parameterises a complete external sort.
type Config struct {
	// Algorithm is the legacy alias for Policy: when Policy is policy.None,
	// withDefaults resolves it to policy.TwoWayRS, policy.RS or policy.LSS,
	// and nothing after that reads it.
	Algorithm Algorithm
	// Policy selects the run generator (internal/policy): one of the fixed
	// generators (2wrs, rs, lss, alternating, quick) or the adaptive
	// policy.Auto, which probes the input and may switch generators at run
	// boundaries mid-stream. The zero value defers to Algorithm.
	Policy policy.Kind
	// Memory is the memory budget in records, used by both phases: the run
	// generation data structures, and (converted to bytes) the merge
	// buffers.
	Memory int
	// FanIn is the merge fan-in (thesis optimum: 10).
	FanIn int
	// TWRS carries the 2WRS-specific knobs; its Memory field is ignored in
	// favour of Config.Memory. Zero value means the recommended §5.3
	// configuration.
	TWRS core.Config
	// PageSize and PagesPerFile configure run storage (0: defaults).
	PageSize     int
	PagesPerFile int
	// Prefix names the temporary files of this sort (default "sort").
	Prefix string
	// Clock, when set, samples a simulated clock (e.g. iosim.Disk.Elapsed)
	// around each phase so Stats can report simulated I/O time.
	Clock func() time.Duration
	// Parallelism bounds the sort's concurrency (default GOMAXPROCS):
	// above 1, run spilling moves to background writer goroutines behind
	// double-buffered channels and independent intermediate merges execute
	// on a worker pool of this size. 1 reproduces the fully sequential
	// behaviour — and the paper's sequential cost model — exactly; the
	// on-disk run format and the sorted output are identical either way.
	// A simulated clock (Clock != nil) always forces 1: overlap against a
	// single simulated device would double-count time.
	Parallelism int
	// Cancel, when set, is polled between batches in the merge phase; a
	// non-nil return aborts the sort with that error. (Run generation is
	// cancelled through the source: the public API wraps src in a reader
	// whose batch boundaries check the context.) It must be safe for
	// concurrent use: parallel intermediate merges — and the shards of a
	// sharded sort (internal/distsort) — poll it from their own goroutines.
	Cancel func() error
	// Manifest makes run generation durable: a CRC-guarded manifest file
	// ("<Prefix>.manifest", written directly on fs beside the spill files)
	// records each run boundary as it completes, so a crashed or killed
	// sort can resume from the last boundary instead of restarting (see
	// internal/manifest and DESIGN.md §14). Manifest mode checkpoints the
	// generator at every boundary — the run sequence becomes a
	// deterministic function of (input, config) — and spills the carried
	// generator state beside the runs; the adaptive auto policy cannot be
	// checkpointed and is rejected. On error the spill files and manifest
	// are left in place for Resume, not discarded.
	Manifest bool
	// Resume makes GenerateRuns first attempt to resume from the manifest
	// a previous Manifest-mode pass left behind, falling back to a fresh
	// manifest-writing pass when none exists. The input source must serve
	// the same records from the start; resume fast-forwards it to the
	// recorded position. Implies Manifest.
	Resume bool
	// Storage selects the spill backend layered over fs: the zero value is
	// the historical raw layout; a Compression name turns on checksummed
	// block framing (optionally compressed), and MemoryBudgetBytes adds an
	// in-memory tier that overflows to fs.
	Storage storage.Config
	// Trace, when non-nil, records spans for the sort's phases, runs,
	// merge operations and spill files; export them with the tracer's
	// WriteChromeTrace/WriteSpansJSONL. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives live counters, gauges and histograms
	// under the extsort_* names (internal/obs names.go), kept consistent
	// with the final Stats/Stats.IO. Nil disables metrics at zero cost.
	Metrics *obs.Registry
	// Progress, when non-nil, emits periodic progress lines (phase,
	// records/sec, ETA) to its writer for the duration of the sort.
	Progress *obs.Progress
}

// Recommended returns the paper's recommended end-to-end configuration:
// 2WRS (§5.3 parameters) with fan-in 10.
func Recommended(memory int) Config {
	return Config{
		Algorithm: TwoWayRS,
		Memory:    memory,
		FanIn:     10,
		TWRS:      core.Recommended(memory),
	}
}

// withDefaults fills in the defaults and validates the configuration. It
// resolves the Algorithm alias into Policy.
func (c Config) withDefaults() (Config, error) {
	if c.Memory <= 0 {
		return c, fmt.Errorf("extsort: memory must be positive, got %d", c.Memory)
	}
	if c.Policy == policy.None {
		k, ok := algKinds[c.Algorithm]
		if !ok {
			return c, fmt.Errorf("extsort: unknown algorithm %v", c.Algorithm)
		}
		c.Policy = k
	}
	if c.Manifest && c.Policy == policy.Auto {
		return c, fmt.Errorf("extsort: the auto policy's adaptive probe state cannot be checkpointed; durable (Manifest/Resume) sorts need a fixed policy or a legacy Algorithm")
	}
	if c.FanIn == 0 {
		c.FanIn = 10
	}
	if c.Prefix == "" {
		c.Prefix = "sort"
	}
	if c.Clock != nil {
		// A simulated clock models the paper's single sequential device;
		// overlapping phases against it would double-count time, so a
		// clocked sort is always sequential regardless of Parallelism.
		c.Parallelism = 1
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	twrs := c.TWRS
	if twrs == (core.Config{}) {
		twrs = core.Recommended(c.Memory)
	}
	twrs.Memory = c.Memory
	c.TWRS = twrs
	return c, nil
}

// prepare defaults and validates cfg for a sort over ops.
func prepare[T any](cfg Config, ops Ops[T]) (Config, error) {
	if err := ops.validate(); err != nil {
		return cfg, err
	}
	return cfg.withDefaults()
}

// Stats reports everything the experiments measure about one sort.
type Stats struct {
	// Records is the number of records sorted.
	Records int64
	// Runs is the number of runs generated; AvgRunLength is Records/Runs.
	Runs         int
	AvgRunLength float64
	// Policy names the run-generation policy that ran ("2wrs", "rs",
	// "lss", "alternating", "quick", "auto"; the legacy Algorithm alias
	// reports the policy it resolves to). PolicySwitches counts the
	// mid-stream generator changes the auto policy made (0 for every fixed
	// policy).
	Policy         string
	PolicySwitches int
	// RunsRecovered is the number of runs a resumed sort recovered intact
	// from a durable manifest instead of regenerating (0 for fresh sorts).
	RunsRecovered int
	// Shards is the number of range shards a sharded distribution sort
	// (internal/distsort) partitioned the input into; zero for plain
	// single-stream sorts.
	Shards int
	// ShardRecords is a sharded sort's per-shard record count in shard
	// (= splitter) order; nil for plain sorts.
	ShardRecords []int64
	// Keyed reports whether the sort ran on normalized keys (Ops.KeyCodec
	// accepted by the sampled order check); false means every comparison
	// went through the comparator.
	Keyed bool
	// OverlapRuns counts 2WRS runs whose streams had to merge separately.
	OverlapRuns int64
	// MergeInputs, MergePasses and MergeOps describe the merge phase.
	MergeInputs int
	MergePasses int
	MergeOps    int
	// RunGenWall and MergeWall are wall-clock phase durations.
	RunGenWall time.Duration
	MergeWall  time.Duration
	// RunGenSim and MergeSim are simulated-clock phase durations when
	// Config.Clock was provided (e.g. backed by iosim.Disk).
	RunGenSim time.Duration
	MergeSim  time.Duration
	// Storage describes the spill backend that ran (e.g. "raw",
	// "block(flate)"); IO is its byte-level accounting — raw versus stored
	// bytes moved, block counts, checksum verification failures, and the
	// memory tier's residency. IO covers both phases once Merge returns.
	Storage string
	// IO is the spill backend's I/O accounting snapshot.
	IO IOStats
	// Elapsed is the end-to-end wall time of the entry point that produced
	// these stats, including setup outside the phase loops — so it is
	// always at least the sum of Phases.
	Elapsed time.Duration
	// Phases breaks Elapsed into named per-phase wall durations in
	// execution order (e.g. "generate" then "merge").
	Phases []PhaseStat
}

// IOStats is the spill backend's I/O accounting, re-exported from
// internal/storage so Stats can carry it.
type IOStats = storage.IOStats

// TotalWall returns the end-to-end wall-clock duration.
func (s Stats) TotalWall() time.Duration { return s.RunGenWall + s.MergeWall }

// TotalSim returns the end-to-end simulated duration.
func (s Stats) TotalSim() time.Duration { return s.RunGenSim + s.MergeSim }

// RunSet is the boundary between the sort's two phases: the sorted runs one
// generation pass produced, plus everything needed to merge them — the file
// system, the emitter (codec, comparator, layout sizes) and the frozen
// configuration. Sort is GenerateRuns followed by RunSet.Merge; the operator
// layer instead calls RunSet.OpenMerged to pull the globally sorted order as
// a stream, filtering or abandoning it without materialising an output file.
//
// A RunSet owns its run files until exactly one of Merge, OpenMerged (whose
// Stream then owns them) or Discard is called.
type RunSet[T any] struct {
	store    storage.Backend
	em       *runio.Emitter[T]
	runs     []runio.Run
	policies []string // policies[i] names the generator that produced runs[i]
	cfg      Config
	ops      Ops[T]
	clock    func() time.Duration
	stats    Stats    // run-generation half; Merge fills the merge half
	o        *sortObs // nil when observability is off

	// Manifest-mode state: the base file system the manifest lives on and
	// the manifest's file name. Both are zero for non-durable sorts.
	fs           vfs.FS
	manifestName string
}

// GenerateRuns runs phase one only: it consumes src and writes sorted runs
// to temporary files on fs, returning the RunSet to merge, stream or
// discard. Configuration defaulting and validation match Sort exactly.
func GenerateRuns[T any](src stream.Reader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	if cfg.Resume {
		rset, err := Resume(src, fs, cfg, ops)
		if err == nil || !(errors.Is(err, manifest.ErrNoManifest) || errors.Is(err, manifest.ErrNoHeader)) {
			return rset, err
		}
		// Nothing to resume from yet — no manifest, or one truncated by a
		// crash before its header record became durable, which carries zero
		// adoptable state: run a fresh manifest-writing pass.
		cfg.Resume, cfg.Manifest = false, true
	}
	cfg, err := prepare(cfg, ops)
	if err != nil {
		return nil, err
	}
	rset, err := newRunSet(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	return rset.generate(src, nil, entry)
}

// newRunSet builds the RunSet shell every pass starts from — storage,
// observability and the emitter — for a prepared configuration. A durable
// set also records where its manifest lives.
func newRunSet[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	store, err := storage.New(fs, cfg.Storage)
	if err != nil {
		return nil, err
	}
	o := newSortObs(cfg)
	// Per-spill-file spans ride a decorated backend; block-level I/O
	// inside a file pays no tracing cost.
	store = storage.Traced(store, o.tracer())
	em := runio.NewEmitterOn(store, cfg.Prefix, ops.Codec, ops.Less)
	em.PageSize = cfg.PageSize
	em.PagesPerFile = cfg.PagesPerFile
	if em.PagesPerFile == 0 && cfg.Clock == nil {
		// Right-size backward chain files on real machines. Simulated runs
		// (Clock set) keep the thesis' historical k=1000-page layout, which
		// the disk model's seek accounting assumes.
		em.PagesPerFile = backwardPages(cfg.Memory, ops.elementBytes(), cfg.PageSize)
	}
	// With headroom for concurrency, spill pages flow to storage through
	// background writer goroutines so heap work overlaps file I/O.
	em.Async = cfg.Parallelism > 1
	clock := cfg.Clock
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	rset := &RunSet[T]{store: store, em: em, cfg: cfg, ops: ops, clock: clock, o: o}
	rset.stats.Storage = store.String()
	if cfg.Manifest {
		rset.fs, rset.manifestName = fs, manifest.Name(cfg.Prefix)
	}
	return rset, nil
}

// generate is the one run-generation loop. Every sort draws its runs here
// from the generator policy.New builds, whatever the policy (or legacy
// Algorithm) and whether or not it is durable. A durable sort adds two
// steps per run boundary: commitBoundary makes the boundary durable, and
// the generator restarts from its carried state, so the run sequence is a
// pure function of input and configuration (DESIGN.md §14). rec, when set,
// continues a recovered pass. On error a plain sort's files are discarded;
// a durable sort's spill files and manifest stay on disk for Resume.
func (r *RunSet[T]) generate(src stream.Reader[T], rec *recovered[T], entry time.Time) (*RunSet[T], error) {
	cfg, ops, em, o := r.cfg, r.ops, r.em, r.o
	durable := r.manifestName != ""
	total := int64(-1)
	if s, ok := src.(stream.Sized); ok {
		total = int64(s.Remaining())
	}
	em.Checksums = durable

	// Arm the keyed hot path if a key codec is available and survives the
	// sampled order check against the comparator.
	src, keyed, err := applyKeyCodec(src, em, ops)
	if err != nil {
		return r.abortSetup(err)
	}
	r.stats.Keyed = keyed
	var man *manifest.Writer
	if durable {
		hdr := durableHeader(cfg, ops, em, keyed)
		if rec == nil {
			man, err = manifest.Create(r.fs, r.manifestName, hdr)
		} else {
			man, err = manifest.Rewrite(r.fs, r.manifestName, hdr, rec.manRuns)
		}
		if err != nil {
			return r.abortSetup(err)
		}
	}

	pol := cfg.Policy.String()
	gsp := o.tracer().Start("generate",
		obs.Str("policy", pol), obs.Bool("keyed", keyed), obs.Bool("durable", durable))
	fail := func(err error) (*RunSet[T], error) {
		gsp.End(obs.Str("error", err.Error()))
		if !durable {
			r.Discard()
			return nil, err
		}
		// No Discard for a durable sort: the spill files and manifest are
		// exactly the state Resume needs. But an abandoned run writer's
		// background flusher must still be joined, or it would keep
		// appending to the surviving files while a later Resume reads them.
		man.Close()
		em.AbortOpen()
		return r.abortSetup(err)
	}

	in := &countReader[T]{src: src, br: stream.AsBatchReader(src)}
	var (
		carried []T
		carries []string
	)
	if rec != nil {
		rsp := o.tracer().Start("resume",
			obs.Int("runs_recovered", int64(len(rec.runs))), obs.Int("input_pos", rec.inputPos))
		if err := skipInput(in, rec.inputPos); err != nil {
			rsp.End(obs.Str("error", err.Error()))
			return fail(err)
		}
		rsp.End()
		r.runs = append(r.runs, rec.runs...)
		r.policies = append(r.policies, rec.policies...)
		for _, mr := range rec.manRuns {
			if mr.CarryName != "" {
				carries = append(carries, mr.CarryName)
			}
		}
		carried = rec.carried
		em.Namer.SetSeq(rec.namerSeq)
		r.stats.RunsRecovered = len(rec.runs)
		o.observeRecovered(len(rec.runs))
		if total >= 0 {
			total -= rec.inputPos
		}
	}
	// Metering starts after the skip: re-served input is not new work.
	in.c, in.rep = o.inputMeters()
	o.reporter().SetPhase("generate", total)

	simStart, wallStart := r.clock(), time.Now()
	pcfg := policy.Config{Memory: cfg.Memory, TWRS: cfg.TWRS, Span: gsp}
	var gen policy.Generator[T]
	for {
		if gen == nil {
			var cur stream.Reader[T] = in
			if len(carried) > 0 {
				cur = stream.NewPushback(carried, in)
			}
			// A restarted alternating generator alternates by run parity.
			if gen, err = policy.New(cfg.Policy, len(r.runs)%2 == 1, cur, em, pcfg, ops.Key); err != nil {
				return fail(err)
			}
		}
		made := pol
		if a, ok := gen.(policy.Adaptive); ok {
			made = a.Kind().String()
		}
		sp := gsp.Start("run", obs.Str("policy", made))
		run, ok, err := gen.NextRun()
		if err != nil {
			sp.Drop()
			return fail(err)
		}
		if !ok {
			sp.Drop()
			break
		}
		sp.End(obs.Int("records", run.Records), obs.Bool("concatenable", run.Concatenable))
		if durable {
			carried, gen = gen.Carry(), nil
			mr, err := r.commitBoundary(man, run, carried, made, in.n)
			if err != nil {
				return fail(err)
			}
			if mr.CarryName != "" {
				carries = append(carries, mr.CarryName)
			}
		}
		r.runs = append(r.runs, run)
		r.policies = append(r.policies, made)
	}
	if durable {
		// Commit before deleting carry snapshots: a crash between the two
		// leaves a committed manifest whose runs are all complete, which
		// recovers fully; the stale carries are swept on the next resume.
		if err := man.Commit(in.n); err != nil {
			return fail(err)
		}
		if err := man.Close(); err != nil {
			return fail(err)
		}
		for _, name := range carries {
			r.store.Remove(name)
		}
		em.Checksums = false // the merge phase does not update the manifest
	}
	if a, ok := gen.(policy.Adaptive); ok {
		r.stats.PolicySwitches = a.Switches()
	}
	r.stats.Policy = pol
	r.stats.RunGenSim = r.clock() - simStart
	gsp.End(obs.Int("runs", int64(len(r.runs))), obs.Int("records", in.n))
	r.seal(in.n, "generate", time.Since(wallStart), entry)
	return r, nil
}

// seal completes the run-generation half of the stats once r.runs is
// final, and reports it to the metrics.
func (r *RunSet[T]) seal(records int64, phase string, wall time.Duration, entry time.Time) {
	st := &r.stats
	st.Records, st.Runs = records, len(r.runs)
	if st.Runs > 0 {
		st.AvgRunLength = float64(records) / float64(st.Runs)
	}
	for _, run := range r.runs {
		if !run.Concatenable {
			st.OverlapRuns++
		}
		r.o.observeRun(run.Records)
	}
	st.RunGenWall = wall
	st.IO = r.store.Stats()
	st.Elapsed = time.Since(entry)
	st.Phases = []PhaseStat{{Name: phase, Wall: wall}}
	r.o.finishGenerate(*st, st.IO)
}

// Runs returns the run manifests of the set; callers must not mutate them.
func (r *RunSet[T]) Runs() []runio.Run { return r.runs }

// RunPolicies returns, parallel to Runs, the name of the run-generation
// policy that produced each run. Under a fixed policy (or the legacy
// Algorithm alias) every entry is the same; under the auto policy the
// sequence records where the engine switched generators mid-stream.
// Callers must not mutate the returned slice.
func (r *RunSet[T]) RunPolicies() []string { return r.policies }

// Stats returns the statistics accumulated so far: the run-generation half
// after GenerateRuns, both halves after Merge. The IO accounting is a live
// snapshot of the spill backend, so a caller draining OpenMerged sees the
// final merge's reads accumulate.
func (r *RunSet[T]) Stats() Stats {
	st := r.stats
	st.IO = r.store.Stats()
	return st
}

// Store exposes the spill backend of this sort, for callers that inspect
// accounting or file residency directly (tests, benchmarks).
func (r *RunSet[T]) Store() storage.Backend { return r.store }

// mergeConfig assembles the merge-phase configuration from the sort's.
// With observability on it opens the "merge" phase span, points the
// progress reporter at the merge, and installs an idempotent OnClose hook
// that ends the span, records the phase time and syncs the I/O metrics
// when the merge stream closes (Merge and OpenMerged error paths invoke
// it too, so the hook always runs exactly once).
func (r *RunSet[T]) mergeConfig() merge.Config {
	mc := merge.Config{
		FanIn:       r.cfg.FanIn,
		MemoryBytes: r.cfg.Memory * r.ops.elementBytes(),
		Workers:     r.cfg.Parallelism,
		Cancel:      r.cfg.Cancel,
	}
	if r.o != nil {
		sp := r.o.tracer().Start("merge", obs.Int("inputs", int64(len(r.runs))))
		r.o.reporter().SetPhase("merge", r.stats.Records)
		start := time.Now()
		var once sync.Once
		o := r.o
		store := r.store
		mc.Span = sp
		mc.Metrics = r.cfg.Metrics
		mc.Progress = o.reporter()
		mc.OnClose = func() {
			once.Do(func() {
				sp.End()
				o.observeMergePhase(time.Since(start))
				o.syncIO(store.Stats())
				o.reporter().Stop()
			})
		}
	}
	return mc
}

// OpenMerged runs the intermediate merge passes and returns the final merge
// as a pull stream in globally sorted order. The returned Stream owns the
// remaining run files and must be Closed, fully drained or not; the merge
// half of the RunSet's Stats stays zero — the Stream reports its own.
//
// Note that simulated-clock accounting (Config.Clock) covers only the
// intermediate passes here, since the final merge's I/O happens at the
// caller's pace; Merge accounts for the whole phase.
func (r *RunSet[T]) OpenMerged() (*merge.Stream[T], error) {
	// Every run — concatenable or not — is one merge input: runio.OpenRun
	// interleaves overlapping streams on the fly.
	mc := r.mergeConfig()
	st, err := merge.NewStream(r.em, r.runs, mc)
	if err != nil && mc.OnClose != nil {
		mc.OnClose()
	}
	return st, err
}

// Merge completes the sort: it merges the run set into dst and returns the
// full two-phase statistics.
func (r *RunSet[T]) Merge(dst stream.Writer[T]) (Stats, error) {
	simStart, wallStart := r.clock(), time.Now()
	mc := r.mergeConfig()
	ms, err := merge.Merge(r.em, r.runs, dst, mc)
	if mc.OnClose != nil {
		// Idempotent: a successful merge already ran it at stream close;
		// this covers the paths where no stream ever existed.
		mc.OnClose()
	}
	if err != nil {
		r.stats.IO = r.store.Stats()
		return r.stats, err
	}
	// The merge consumed the run files, so the manifest no longer
	// describes anything recoverable; a leftover manifest would only make
	// a later Resume re-validate, fail and regenerate from scratch.
	r.removeManifest()
	r.stats.MergeInputs = ms.Inputs
	r.stats.MergePasses = ms.Passes
	r.stats.MergeOps = ms.Merges
	r.stats.MergeWall = time.Since(wallStart)
	r.stats.MergeSim = r.clock() - simStart
	r.stats.IO = r.store.Stats()
	r.stats.Elapsed += r.stats.MergeWall
	r.stats.Phases = append(r.stats.Phases, PhaseStat{Name: "merge", Wall: r.stats.MergeWall})
	return r.stats, nil
}

// isSpillName reports whether name matches the shape the sort's Namer
// hands out — prefix-NNNN-role, backward chains appending ".N" — so the
// Discard sweep can recognise this sort's files without ever touching an
// unrelated file that merely shares the prefix (a user's "sort-mydata.rec"
// in a shared temp directory must survive a failed sort).
func isSpillName(prefix, name string) bool {
	rest, ok := strings.CutPrefix(name, prefix+"-")
	if !ok {
		return false
	}
	digits := 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		digits++
	}
	// The Namer zero-pads sequence numbers to at least four digits.
	if digits < 4 || digits >= len(rest) || rest[digits] != '-' {
		return false
	}
	return len(rest) > digits+1
}

// Discard deletes every spill file of this sort without merging: the run
// manifests, plus — by sweeping the backend for names the sort's Namer
// produced — any stragglers a failed pass left behind (a half-written run
// from an aborted generation, intermediate outputs of a failed reduce,
// orphaned backward chain files). Runs already consumed are skipped
// silently. A durable sort's manifest and carry snapshots are removed too
// — Discard abandons the sort, resumable state included — and a second
// Discard of the same set is a no-op. After Discard the backend holds no
// file of this sort, on any tier.
func (r *RunSet[T]) Discard() error {
	r.o.reporter().Stop()
	// A failed generation can abandon its current run writer with a
	// background flusher still appending; join those goroutines before
	// removing the files they write to.
	r.em.AbortOpen()
	var first error
	if r.manifestName != "" && r.fs != nil {
		if err := r.fs.Remove(r.manifestName); err != nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
		r.manifestName = ""
	}
	for _, run := range r.runs {
		if err := run.Remove(r.store); err != nil && first == nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
	}
	r.runs = nil
	names, err := r.store.Names()
	if err != nil {
		if first == nil {
			first = err
		}
		return first
	}
	for _, name := range names {
		if !isSpillName(r.cfg.Prefix, name) {
			continue
		}
		if err := r.store.Remove(name); err != nil && first == nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
	}
	return first
}

// removeManifest deletes the sort's manifest file, if it has one, and
// forgets it so Discard does not try again. Best-effort: a manifest that
// cannot be removed only costs a failed validation on some later Resume.
func (r *RunSet[T]) removeManifest() {
	if r.manifestName != "" && r.fs != nil {
		r.fs.Remove(r.manifestName)
	}
	r.manifestName = ""
}

// Sort reads all elements from src, sorts them externally using temporary
// files on fs, and writes the sorted stream to dst. Ordering, storage and
// heuristics come from ops. It is GenerateRuns followed by RunSet.Merge; a
// failed merge discards the run set, so no spill files outlive the error —
// except in Manifest mode, where the spill files and manifest are the
// sort's resumable state and survive the failure.
func Sort[T any](src stream.Reader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops Ops[T]) (Stats, error) {
	rset, err := GenerateRuns(src, fs, cfg, ops)
	if err != nil {
		return Stats{}, err
	}
	stats, err := rset.Merge(dst)
	if err != nil && rset.manifestName == "" {
		rset.Discard()
	}
	return stats, err
}

// SortSlice sorts elements in memory-bounded fashion through a MemFS and
// returns a new sorted slice; a convenience for tests and examples.
func SortSlice[T any](vals []T, cfg Config, ops Ops[T]) ([]T, Stats, error) {
	out := stream.SliceWriter[T]{Vals: make([]T, 0, len(vals))}
	stats, err := Sort[T](stream.NewSliceReader(vals), &out, vfs.NewMemFS(), cfg, ops)
	return out.Vals, stats, err
}
