package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/distsort"
	"repro/internal/extsort"
	"repro/internal/vfs"
)

// sortResult is what one child process reports about the single sort it
// ran. Exact counts come from the sort's Stats; the rest is measured.
type sortResult struct {
	Traced        bool      `json:"traced"`
	WallS         float64   `json:"wall_s"`
	FirstOutputS  float64   `json:"first_output_s"`
	SetupS        []float64 `json:"setup_s"`
	CPUS          float64   `json:"cpu_s"`
	AllocBytes    int64     `json:"alloc_bytes"`
	PeakRSS       int64     `json:"peak_rss_bytes"`
	Records       int64     `json:"records"`
	Runs          int       `json:"runs"`
	AvgRunLength  float64   `json:"avg_run_length"`
	MergePasses   int       `json:"merge_passes"`
	StoredWritten int64     `json:"stored_bytes_written"`
	StoredRead    int64     `json:"stored_bytes_read"`
	ShardRecords  []int64   `json:"shard_records,omitempty"`
	Keyed         bool      `json:"keyed"`
	Policy        string    `json:"policy"`
	Storage       string    `json:"storage"`
	Layers        []metric  `json:"layers,omitempty"`
}

// metric is one reported number; NA, when set, says why the metric does
// not apply to the workload and Value is then meaningless.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	NA    string  `json:"na,omitempty"`
}

// setupProbes is how many extra set-ups each timed child measures before
// its sort, so setup_s is a median over many samples rather than one.
const setupProbes = 400

// usage is a snapshot of the process's CPU time, allocation and GC state.
type usage struct {
	cpu        time.Duration
	maxRSS     int64
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	u := usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:     peakRSS(),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return u
}

// peakRSS reads the process's resident-set high-water mark (VmHWM). The
// rusage maxrss is no use here: across exec it keeps the parent's peak.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return -1
			}
			return kb * 1024
		}
	}
	return -1
}

// firstCall remembers when a stream boundary was first crossed.
type firstCall struct{ at time.Time }

func (f *firstCall) mark() {
	if f.at.IsZero() {
		f.at = time.Now()
	}
}

// timedSource and timedSink note the first call across the public Source
// and Sink boundaries and otherwise pass straight through.
type timedSource[T any] struct {
	*fileSource[T]
	first firstCall
}

func (s *timedSource[T]) Read() (T, error) { s.first.mark(); return s.fileSource.Read() }

func (s *timedSource[T]) ReadBatch(dst []T) (int, error) {
	s.first.mark()
	return s.fileSource.ReadBatch(dst)
}

type timedSink[T any] struct {
	*fileSink[T]
	first firstCall
}

func (s *timedSink[T]) Write(v T) error { s.first.mark(); return s.fileSink.Write(v) }

func (s *timedSink[T]) WriteBatch(src []T) error {
	s.first.mark()
	return s.fileSink.WriteBatch(src)
}

// runTimed sorts dir/input into dir/output through the public API with
// tracing off, then measures setup_s several more times.
func runTimed[T any](w *workload[T], dir string) (sortResult, error) {
	spill := filepath.Join(dir, fmt.Sprintf("spill-%d", os.Getpid()))
	defer os.RemoveAll(spill)
	fsrc, err := openSource(filepath.Join(dir, "input"), w.codec, w.records)
	if err != nil {
		return sortResult{}, err
	}
	defer fsrc.Close()
	out, err := os.Create(filepath.Join(dir, "output"))
	if err != nil {
		return sortResult{}, err
	}
	defer out.Close() // error paths only: the sink's Close is checked below
	src := &timedSource[T]{fileSource: fsrc}
	dst := &timedSink[T]{fileSink: newFileSink(out, w.codec)}

	probes, err := probeSetups(w, filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid())))
	if err != nil {
		return sortResult{}, err
	}

	runtime.GC()
	u0 := snapshot()
	start := time.Now()
	s, err := repro.New(w.less, w.options(spill)...)
	if err != nil {
		return sortResult{}, err
	}
	sortStart := time.Now()
	st, err := s.Sort(context.Background(), src, dst)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	wall := time.Since(start)
	u1 := snapshot()
	if err != nil {
		return sortResult{}, err
	}
	res := resultFromStats(st)
	res.WallS = wall.Seconds()
	res.FirstOutputS = dst.first.at.Sub(sortStart).Seconds()
	res.CPUS = (u1.cpu - u0.cpu).Seconds()
	res.AllocBytes = int64(u1.totalAlloc - u0.totalAlloc)
	res.PeakRSS = u1.maxRSS
	res.SetupS = append(res.SetupS, src.first.at.Sub(start).Seconds())
	res.SetupS = append(res.SetupS, probes...)
	return res, nil
}

var errProbeDone = errors.New("perfbench: set-up probe reached the source")

// probeSource fails its first call, ending the sort right where set-up ends.
type probeSource[T any] struct{ first firstCall }

func (p *probeSource[T]) Read() (T, error) {
	var zero T
	p.first.mark()
	return zero, errProbeDone
}

type discardSink[T any] struct{}

func (discardSink[T]) Write(T) error { return nil }

// probeSetups times repro.New plus everything Sort does before its first
// Source call, setupProbes times, with a source that stops each sort there.
// The probes run before the timed sort, so its I/O is not in flight.
func probeSetups[T any](w *workload[T], spill string) ([]float64, error) {
	defer os.RemoveAll(spill)
	var out []float64
	for i := 0; i < setupProbes; i++ {
		src := &probeSource[T]{}
		start := time.Now()
		s, err := repro.New(w.less, w.options(spill)...)
		if err != nil {
			return nil, err
		}
		_, err = s.Sort(context.Background(), src, discardSink[T]{})
		if !errors.Is(err, errProbeDone) {
			return nil, fmt.Errorf("set-up probe: sort ended with %v, want the probe's own error", err)
		}
		out = append(out, src.first.at.Sub(start).Seconds())
	}
	return out, nil
}

func resultFromStats(st repro.Stats) sortResult {
	return sortResult{
		Records:       st.Records,
		Runs:          st.Runs,
		AvgRunLength:  st.AvgRunLength,
		MergePasses:   st.MergePasses,
		StoredWritten: st.IO.StoredBytesWritten,
		StoredRead:    st.IO.StoredBytesRead,
		ShardRecords:  st.ShardRecords,
		Keyed:         st.Keyed,
		Policy:        st.Policy,
		Storage:       st.Storage,
	}
}

// runTraced sorts dir/input into dir/output by calling the layers directly —
// extsort.GenerateRuns then RunSet.Merge, or distsort.Sort for a sharded
// workload — with the same configuration repro.New builds, wrapping every
// boundary the sort accepts: source, sink, comparator, codec, key codec and
// spill file system. bounds are the shard boundaries of the timed sort's
// output, used to attribute comparator calls to shards.
func runTraced[T any](w *workload[T], dir string, bounds []T, sortID int64) (sortResult, error) {
	spill := filepath.Join(dir, fmt.Sprintf("spill-%d", os.Getpid()))
	defer os.RemoveAll(spill)
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return sortResult{}, err
	}
	fsrc, err := openSource(filepath.Join(dir, "input"), w.codec, w.records)
	if err != nil {
		return sortResult{}, err
	}
	defer fsrc.Close()
	out, err := os.Create(filepath.Join(dir, "output"))
	if err != nil {
		return sortResult{}, err
	}
	defer out.Close() // error paths only: the sink's Close is checked below
	sharded := w.shards > 1
	rec := newRecorder(sortID)
	ln := newLanes(w.less, bounds)
	var encodes, decodes, keys counter
	fs := newTracedFS(vfs.NewOSFS(spill), rec, sharded, ln.markOpen)
	ops := extsort.Ops[T]{
		Less:  ln.compare,
		Codec: countingCodec[T]{Codec: w.codec, encodes: &encodes, decodes: &decodes},
		Key:   w.key,
	}
	if w.keyed {
		pk, ok := w.keyCodec.(prefixKeyCodec[T])
		if !ok {
			return sortResult{}, fmt.Errorf("key codec %T lacks the prefix fast path", w.keyCodec)
		}
		ops.KeyCodec = countingKeyCodec[T]{prefixKeyCodec: pk, keys: &keys}
	}
	streamLane := 0
	if sharded {
		streamLane = -1
	}
	src := &tracedSource[T]{src: fsrc, rec: rec, lane: streamLane}
	sink := newFileSink(out, w.codec)
	dst := &tracedSink[T]{dst: sink, rec: rec, lane: streamLane}

	runtime.GC()
	u0 := snapshot()
	start := time.Now()
	endSort := rec.begin("bench.sort")
	cfg, err := w.internalConfig(spill)
	if err != nil {
		return sortResult{}, err
	}
	tr := rec.tracer()
	cfg.Trace = tr
	var st extsort.Stats
	if sharded {
		end := rec.begin("bench.distsort")
		st, err = distsort.Sort[T](src, dst, fs, distsort.Config{Shards: w.shards, Extsort: cfg}, ops)
		end()
	} else {
		end := rec.begin("bench.generate")
		rset, gerr := extsort.GenerateRuns[T](src, fs, cfg, ops)
		end()
		err = gerr
		if err == nil {
			end = rec.begin("bench.merge")
			st, err = rset.Merge(dst)
			end()
			if err != nil {
				rset.Discard()
			}
		}
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	endSort()
	wall := time.Since(start)
	u1 := snapshot()
	if err != nil {
		return sortResult{}, err
	}
	rec.importProgram(tr)
	res := resultFromStats(st)
	res.Traced = true
	res.WallS = wall.Seconds()
	res.CPUS = (u1.cpu - u0.cpu).Seconds()
	res.AllocBytes = int64(u1.totalAlloc - u0.totalAlloc)
	res.PeakRSS = u1.maxRSS
	res.Layers = layerMetrics(w, st, layerInputs{
		rec: rec, fs: fs, src: src, dst: dst, lanes: ln.firstOpens(),
		genCmp: sumCounters(ln.genCmp), mergeCmp: sumCounters(ln.mergeCmp),
		encodes: encodes.Load(), decodes: decodes.Load(), keys: keys.Load(),
		wall: wall, cpu: u1.cpu - u0.cpu, gcCycles: int64(u1.numGC - u0.numGC), gcCPU: u1.gcCPU - u0.gcCPU,
	})
	return res, nil
}
