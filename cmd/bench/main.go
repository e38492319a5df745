// Command bench runs the repository's tier-1 sort and operator benchmarks
// and emits a machine-readable BENCH_<n>.json, so the performance
// trajectory of the library is tracked commit to commit. The headline
// numbers are the 1M-record SortSlice throughput in the paper-style
// external configuration (memory far smaller than the input, multi-pass
// merge) and the 1M-record operator suite (distinct / top-k / merge join)
// built on the same machinery. The previous report's results ride along as
// this report's baseline.
//
// Usage:
//
//	go run ./cmd/bench              # writes the next free BENCH_<n>.json
//	go run ./cmd/bench -out my.json -n 1000000 -mem 8192
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/record"
	"repro/internal/stream"
)

// result is one benchmark measurement. Mode records whether the sort ran
// on normalized keys ("keyed") or comparator calls ("comparator");
// GenerationNs/MergeNs split the last iteration's wall clock into the run
// generation and merge phases, attributing keyed wins to the phase that
// earned them. All three are absent on rows without a sort behind them.
type result struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode,omitempty"`
	Iters        int     `json:"iters"`
	NsPerOp      int64   `json:"ns_per_op"`
	GenerationNs int64   `json:"generation_ns,omitempty"`
	MergeNs      int64   `json:"merge_ns,omitempty"`
	MBPerS       float64 `json:"mb_per_s"`
	RecordsPerS  float64 `json:"records_per_s"`
}

// modeOf names a sort's comparison mode from its stats.
func modeOf(st repro.Stats) string {
	if st.Keyed {
		return "keyed"
	}
	return "comparator"
}

// phaseNs reads one named phase's wall clock out of the per-phase
// breakdown the sort reports (Stats.Phases); 0 when the phase is absent.
func phaseNs(st repro.Stats, name string) int64 {
	for _, ph := range st.Phases {
		if ph.Name == name {
			return ph.Wall.Nanoseconds()
		}
	}
	return 0
}

// withPhases attaches the mode and per-phase wall clocks of one
// representative run to a measured result.
func withPhases(r result, st repro.Stats) result {
	r.Mode = modeOf(st)
	r.GenerationNs = phaseNs(st, "generate")
	r.MergeNs = phaseNs(st, "merge")
	return r
}

// storageCell is one cell of the storage matrix: one spill backend sorting
// one distribution, with the backend's byte accounting attached. Ratio is
// raw/stored spilled bytes — the backend's compression win.
type storageCell struct {
	Dataset        string  `json:"dataset"`
	Compression    string  `json:"compression"`
	SpillMemBudget int64   `json:"spill_mem_budget,omitempty"`
	RawSpilled     int64   `json:"raw_spilled_bytes"`
	StoredSpilled  int64   `json:"stored_spilled_bytes"`
	Ratio          float64 `json:"ratio"`
	Blocks         int64   `json:"blocks_written"`
	Overflows      int64   `json:"overflows,omitempty"`
	VerifyFailures int64   `json:"verify_failures"`
	NsPerOp        int64   `json:"ns_per_op"`
	RecordsPerS    float64 `json:"records_per_s"`
}

// policyCell is one cell of the policy × distribution matrix: one run
// generation policy sorting one of the paper's six input distributions.
type policyCell struct {
	Dataset     string  `json:"dataset"`
	Policy      string  `json:"policy"`
	Runs        int     `json:"runs"`
	AvgRunLen   float64 `json:"avg_run_length"`
	Switches    int     `json:"policy_switches,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	RecordsPerS float64 `json:"records_per_s"`
}

// selectionCell is one cell of the selection × distribution × k matrix:
// one selection operator answering one order-statistic query over one of
// the paper's six distributions. The sort-then-index baseline runs the
// full sort machinery at the same memory budget and reads the answer out
// of the sorted result — what every selection cell is trying to beat.
type selectionCell struct {
	Dataset     string  `json:"dataset"`
	Op          string  `json:"op"`
	K           int     `json:"k,omitempty"`
	Spilled     bool    `json:"spilled,omitempty"`
	Swaps       int64   `json:"swaps,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	RecordsPerS float64 `json:"records_per_s"`
}

// keyedCell is one cell of the keyed × policy × distribution matrix: one
// run-generation policy sorting one paper distribution in one comparison
// mode, with the phase split that shows where normalized keys pay.
type keyedCell struct {
	Dataset      string  `json:"dataset"`
	Policy       string  `json:"policy"`
	Mode         string  `json:"mode"`
	Runs         int     `json:"runs"`
	GenerationNs int64   `json:"generation_ns"`
	MergeNs      int64   `json:"merge_ns"`
	NsPerOp      int64   `json:"ns_per_op"`
	RecordsPerS  float64 `json:"records_per_s"`
}

// shardCell is one cell of the cores × shards scaling matrix: a
// range-partitioned distribution sort (Config.Shards) at one GOMAXPROCS
// setting. Checksum fingerprints the sorted output; every cell of a matrix
// must agree, which is the byte-identity guarantee measured at scale.
type shardCell struct {
	Cores       int     `json:"gomaxprocs"`
	Shards      int     `json:"shards"`
	NsPerOp     int64   `json:"ns_per_op"`
	RecordsPerS float64 `json:"records_per_s"`
	PartitionNs int64   `json:"partition_ns,omitempty"`
	MergeNs     int64   `json:"merge_ns,omitempty"`
	Checksum    string  `json:"output_checksum"`
}

// report is the schema of a BENCH_<n>.json file.
type report struct {
	Bench           int             `json:"bench"`
	Date            time.Time       `json:"date"`
	GoVersion       string          `json:"go"`
	GOOS            string          `json:"goos"`
	GOARCH          string          `json:"goarch"`
	GOMAXPROCS      int             `json:"gomaxprocs"`
	Records         int             `json:"records"`
	Memory          int             `json:"memory_records"`
	MatrixRecords   int             `json:"matrix_records,omitempty"`
	Baseline        []result        `json:"baseline"`
	BaselineNote    string          `json:"baseline_note"`
	Results         []result        `json:"results"`
	PolicyMatrix    []policyCell    `json:"policy_matrix,omitempty"`
	KeyedMatrix     []keyedCell     `json:"keyed_matrix,omitempty"`
	StorageMatrix   []storageCell   `json:"storage_matrix,omitempty"`
	SelectionMatrix []selectionCell `json:"selection_matrix,omitempty"`
	CoresOnline     int             `json:"cores_online,omitempty"`
	ShardRecords    int             `json:"shard_matrix_records,omitempty"`
	ShardMemory     int             `json:"shard_matrix_memory,omitempty"`
	ShardMatrix     []shardCell     `json:"shard_matrix,omitempty"`
	Notes           []string        `json:"notes,omitempty"`
}

// elementOnlyReader hides the batch protocol of the wrapped source, forcing
// the sort onto the element-at-a-time compatibility path; with
// Parallelism=1 this reproduces the pre-batching data plane at the API
// boundary and isolates the batch protocol's contribution.
type elementOnlyReader struct{ r *record.SliceReader }

func (e *elementOnlyReader) Read() (record.Record, error) { return e.r.Read() }

// elementOnlyWriter likewise hides the destination's batch support.
type elementOnlyWriter struct{ w *record.SliceWriter }

func (e *elementOnlyWriter) Write(r record.Record) error { return e.w.Write(r) }

// dyingReader serves records until dieAt, then fails — the bench's stand-in
// for a crash mid-sort; the durability rows resume from what it left behind.
type dyingReader struct {
	recs  []record.Record
	pos   int
	dieAt int
}

var errBenchKill = errors.New("bench: simulated crash")

func (d *dyingReader) Read() (record.Record, error) {
	if d.pos >= len(d.recs) {
		return record.Record{}, io.EOF
	}
	if d.pos >= d.dieAt {
		return record.Record{}, errBenchKill
	}
	r := d.recs[d.pos]
	d.pos++
	return r, nil
}

// discard counts writes of any element type and drops them.
type discard[T any] struct{ n int64 }

func (d *discard[T]) Write(T) error { d.n++; return nil }

func (d *discard[T]) WriteBatch(src []T) error { d.n += int64(len(src)); return nil }

// checksumSink fingerprints the sorted record stream (FNV-64a over the
// fixed 16-byte layout) without materialising it, so the shard matrix can
// assert byte-identity across cells on inputs too big to keep per cell.
type checksumSink struct {
	h   uint64
	buf []byte
	n   int64
}

func newChecksumSink() *checksumSink { return &checksumSink{h: fnv.New64a().Sum64()} }

func (c *checksumSink) Write(r record.Record) error {
	return c.WriteBatch([]record.Record{r})
}

func (c *checksumSink) WriteBatch(src []record.Record) error {
	c.buf = c.buf[:0]
	for _, r := range src {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(r.Key))
		c.buf = binary.LittleEndian.AppendUint64(c.buf, r.Aux)
	}
	h := c.h
	for _, b := range c.buf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	c.h = h
	c.n += int64(len(src))
	return nil
}

func (c *checksumSink) sum() string { return fmt.Sprintf("%016x", c.h) }

func measure(name string, records, elemBytes int, f func() error) result {
	r := testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(records) * int64(elemBytes))
		for i := 0; i < b.N; i++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := r.NsPerOp()
	res := result{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     ns,
		MBPerS:      float64(records) * float64(elemBytes) / 1e6 / (float64(ns) / 1e9),
		RecordsPerS: float64(records) / (float64(ns) / 1e9),
	}
	fmt.Printf("%-28s %12d ns/op %8.2f MB/s %12.0f records/s\n", name, ns, res.MBPerS, res.RecordsPerS)
	return res
}

// benchSeq finds the highest existing BENCH_<n>.json: the next report is
// numbered one past it and baselines against it by default, so the report
// number and baseline track the committed sequence instead of being
// hardcoded. The sequence may start anywhere (the repo's begins at 2).
func benchSeq() (next int, latest string) {
	ents, err := os.ReadDir(".")
	if err != nil {
		return 1, ""
	}
	maxN := 0
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err == nil && n > maxN {
			maxN = n
		}
	}
	if maxN == 0 {
		return 1, ""
	}
	return maxN + 1, fmt.Sprintf("BENCH_%d.json", maxN)
}

func main() {
	out := flag.String("out", "", "output JSON path (default: next free BENCH_<n>.json)")
	n := flag.Int("n", 1_000_000, "records per sort")
	mn := flag.Int("mn", 400_000, "records per policy-matrix sort")
	mem := flag.Int("mem", 1<<13, "memory budget in records")
	sn := flag.Int("sn", 10_000_000, "records per cores×shards-matrix sort (0 skips the matrix)")
	smem := flag.Int("smem", 1<<17, "memory budget in records for the cores×shards matrix")
	basePath := flag.String("baseline", "", "prior report whose results become this report's baseline (default: latest existing BENCH_<n>.json)")
	flag.Parse()
	benchNum, latest := benchSeq()
	if *basePath == "" {
		*basePath = latest
	}

	recs := repro.Dataset(repro.DatasetRandom, *n, 42)
	cfg := repro.DefaultConfig(*mem)

	var lastStats repro.Stats
	sortSlice := func(par int) error {
		c := cfg
		c.Parallelism = par
		_, st, err := repro.SortSlice(recs, c)
		lastStats = st
		return err
	}
	// The keyed/comparator pair at the quick policy — the configuration
	// where normalized keys rewrite the most work (radix batch sorting plus
	// the prefix merge) — on the same input and memory budget. Everything
	// except the comparison mode is held fixed, so the rows are directly
	// comparable to each other and to the classic sortslice_1m baseline.
	sortModed := func(opts ...repro.Option) error {
		c := cfg
		c.Policy = "quick"
		s, err := repro.New(record.Less, append([]repro.Option{
			repro.WithConfig(c),
			repro.WithCodec(repro.RecordCodec()),
			repro.WithKey(record.Key)}, opts...)...)
		if err != nil {
			return err
		}
		_, st, err := s.SortSlice(nil, recs)
		lastStats = st
		return err
	}
	sortElementOnly := func() error {
		s, err := repro.New(record.Less,
			repro.WithConfig(cfg),
			repro.WithParallelism(1),
			repro.WithCodec(repro.RecordCodec()),
			repro.WithKey(record.Key))
		if err != nil {
			return err
		}
		out := record.SliceWriter{Vals: make([]record.Record, 0, len(recs))}
		src := &elementOnlyReader{r: record.NewSliceReader(recs)}
		_, err = s.Sort(nil, src, &elementOnlyWriter{w: &out})
		return err
	}

	rep := report{
		Bench:      benchNum,
		Date:       time.Now().UTC(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Records:    *n,
		Memory:     *mem,
	}
	// Carry the previous report's results as this one's baseline, so every
	// BENCH_<n>.json is comparable against its predecessor in isolation.
	if buf, err := os.ReadFile(*basePath); err == nil {
		var prior struct {
			Bench   int      `json:"bench"`
			Results []result `json:"results"`
		}
		if json.Unmarshal(buf, &prior) == nil {
			rep.Baseline = prior.Results
			// Backfill the mode column onto baseline rows predating it:
			// every earlier harness sorted through the comparator.
			for i := range rep.Baseline {
				if rep.Baseline[i].Mode == "" {
					rep.Baseline[i].Mode = "comparator"
				}
			}
			rep.BaselineNote = fmt.Sprintf(
				"results of BENCH_%d (%s), measured with this harness on the same machine class; "+
					"mode backfilled to \"comparator\" on rows predating the keyed path",
				prior.Bench, *basePath)
		}
	}
	if rep.BaselineNote == "" {
		if *basePath == "" {
			rep.BaselineNote = "no prior BENCH_<n>.json report found"
		} else {
			rep.BaselineNote = fmt.Sprintf("no prior report found at %s", *basePath)
		}
	}

	addSort := func(name string, f func() error) {
		r := measure(name, *n, record.Size, f)
		rep.Results = append(rep.Results, withPhases(r, lastStats))
	}
	addSort("sortslice_1m", func() error { return sortSlice(0) })
	addSort("sortslice_1m_seq", func() error { return sortSlice(1) })
	rep.Results = append(rep.Results,
		measure("sortslice_1m_element_seq", *n, record.Size, sortElementOnly))
	addSort("sortslice_1m_keyed", func() error { return sortModed() })
	addSort("sortslice_1m_comparator", func() error { return sortModed(repro.WithoutKeys()) })
	// Observability overhead row: the keyed external sort again with a
	// tracer and a metrics registry attached (fresh per iteration, so the
	// span buffer never grows unbounded). The notes record the ratio to
	// the plain keyed row; the CI guard keeps it under 5%.
	addSort("sortslice_1m_keyed_obs", func() error {
		return sortModed(repro.WithTracer(repro.NewTracer()), repro.WithMetrics(repro.NewMetrics()))
	})
	// The in-memory-heavy variant: budget close to the input size, merge
	// nearly free; tracks the run-generation hot path alone.
	mem64k := repro.DefaultConfig(1 << 16)
	rep.Results = append(rep.Results, measure("sortslice_1m_mem64k", *n, record.Size, func() error {
		_, _, err := repro.SortSlice(recs, mem64k)
		return err
	}))

	// Durability rows: the external sort again under the fixed 2wrs policy
	// (durable mode rejects the adaptive auto policy) — plain, with a
	// durable manifest recording every finished run, and as a
	// kill-at-half-input crash followed by Resume. The plain/durable pair
	// prices the manifest: a checksummed JSON line per run boundary plus a
	// content checksum over every spilled byte. The resume row times the
	// whole crash-and-recover cycle; its note reports how many runs the
	// recovery reused instead of regenerating.
	durCfg := cfg
	durCfg.Policy = "2wrs"
	durableSorter := func(manifest bool) (*repro.Sorter[record.Record], error) {
		opts := []repro.Option{
			repro.WithConfig(durCfg),
			repro.WithCodec(repro.RecordCodec()),
			repro.WithKey(record.Key),
		}
		if manifest {
			opts = append(opts, repro.WithManifest())
		}
		return repro.New(record.Less, opts...)
	}
	addSort("sortslice_1m_2wrs", func() error {
		s, err := durableSorter(false)
		if err != nil {
			return err
		}
		_, st, err := s.SortSlice(nil, recs)
		lastStats = st
		return err
	})
	addSort("sortslice_1m_durable", func() error {
		s, err := durableSorter(true)
		if err != nil {
			return err
		}
		_, st, err := s.SortSlice(nil, recs)
		lastStats = st
		return err
	})
	var resumeStats repro.Stats
	rep.Results = append(rep.Results, measure("resume_1m_killed_half", *n, record.Size, func() error {
		s, err := durableSorter(true)
		if err != nil {
			return err
		}
		var out discard[record.Record]
		if _, err := s.Sort(nil, &dyingReader{recs: recs, dieAt: *n / 2}, &out); !errors.Is(err, errBenchKill) {
			return fmt.Errorf("bench: the dying source did not kill the sort: %v", err)
		}
		resumeStats, err = s.Resume(nil, record.NewSliceReader(recs), &out)
		return err
	}))

	// Operator suite on 1M records. Keys are folded to 1/16th of the input
	// size so duplicate elimination, grouping and the join have real
	// multiplicity; the sort-backed operators inherit the external
	// configuration above.
	fold := func(in []record.Record, mod int64) []record.Record {
		if mod < 1 {
			mod = 1
		}
		out := make([]record.Record, len(in))
		for i, r := range in {
			k := r.Key % mod
			if k < 0 {
				k += mod
			}
			out[i] = record.Record{Key: k, Aux: r.Aux}
		}
		return out
	}
	dupRecs := fold(recs, int64(*n/16))
	opSorter := func() (*repro.Sorter[record.Record], error) {
		return repro.New(record.Less,
			repro.WithConfig(cfg),
			repro.WithCodec(repro.RecordCodec()),
			repro.WithKey(record.Key))
	}
	rep.Results = append(rep.Results, measure("distinct_1m", *n, record.Size, func() error {
		s, err := opSorter()
		if err != nil {
			return err
		}
		var out discard[record.Record]
		_, err = s.Distinct(nil, record.NewSliceReader(dupRecs), &out)
		return err
	}))

	// Top-k with k ≪ N: the bounded-heap selection path. The comparison
	// against sortslice_1m in the same report is the "skipped the merge"
	// evidence — the input is identical, only the query differs.
	var topkStats repro.OpStats
	rep.Results = append(rep.Results, measure("topk100_1m", *n, record.Size, func() error {
		s, err := opSorter()
		if err != nil {
			return err
		}
		var out discard[record.Record]
		topkStats, err = s.TopK(nil, record.NewSliceReader(recs), 100, &out)
		return err
	}))

	left, right := fold(recs[:*n/2], int64(*n/10)), fold(recs[*n/2:], int64(*n/10))
	rep.Results = append(rep.Results, measure("join_500kx500k", *n, record.Size, func() error {
		ls, err := opSorter()
		if err != nil {
			return err
		}
		rs, err := opSorter()
		if err != nil {
			return err
		}
		var out discard[record.Record]
		_, err = repro.MergeJoin(nil,
			ls, record.NewSliceReader(left),
			rs, record.NewSliceReader(right),
			func(l, r record.Record) int {
				switch {
				case l.Key < r.Key:
					return -1
				case l.Key > r.Key:
					return 1
				}
				return 0
			},
			func(l, r record.Record) record.Record {
				return record.Record{Key: l.Key, Aux: l.Aux + r.Aux}
			},
			&out)
		return err
	}))

	// stream protocol microbenches: the raw batch-vs-element copy cost.
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = int64(i)
	}
	rep.Results = append(rep.Results, measure("stream_copy_batch_1m", len(vals), 8, func() error {
		w := stream.SliceWriter[int64]{Vals: make([]int64, 0, len(vals))}
		_, err := stream.Copy[int64](&w, stream.NewSliceReader(vals))
		return err
	}))

	// Policy × distribution matrix: every run-generation policy over every
	// paper distribution, full external sorts at the paper-style budget.
	// Cells are timed directly (best of two runs) rather than through
	// testing.Benchmark — run counts are deterministic and the matrix is
	// 30 sorts wide.
	rep.MatrixRecords = *mn
	dists := []repro.DatasetKind{
		repro.DatasetSorted, repro.DatasetReverseSorted, repro.DatasetAlternating,
		repro.DatasetRandom, repro.DatasetMixedBalanced, repro.DatasetMixedImbalanced,
	}
	distName := map[repro.DatasetKind]string{
		repro.DatasetSorted: "sorted", repro.DatasetReverseSorted: "reverse",
		repro.DatasetAlternating: "alternating", repro.DatasetRandom: "random",
		repro.DatasetMixedBalanced: "mixed", repro.DatasetMixedImbalanced: "imbalanced",
	}
	fmt.Printf("\npolicy × distribution matrix (%d records, %d memory):\n", *mn, *mem)
	bestFixed := map[string]policyCell{}
	autoCell := map[string]policyCell{}
	for _, dist := range dists {
		data := repro.Dataset(dist, *mn, 42)
		for _, pol := range repro.Policies() {
			c := repro.DefaultConfig(*mem)
			c.Policy = pol
			var stats repro.Stats
			best := int64(-1)
			for trial := 0; trial < 2; trial++ {
				start := time.Now()
				_, st, err := repro.SortSlice(data, c)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
					best, stats = ns, st
				}
			}
			cell := policyCell{
				Dataset:     distName[dist],
				Policy:      pol,
				Runs:        stats.Runs,
				AvgRunLen:   stats.AvgRunLength,
				Switches:    stats.PolicySwitches,
				NsPerOp:     best,
				RecordsPerS: float64(*mn) / (float64(best) / 1e9),
			}
			rep.PolicyMatrix = append(rep.PolicyMatrix, cell)
			fmt.Printf("  %-11s %-11s %6d runs %12.0f avg %12d ns %2d switches\n",
				cell.Dataset, cell.Policy, cell.Runs, cell.AvgRunLen, cell.NsPerOp, cell.Switches)
			if pol == "auto" {
				autoCell[cell.Dataset] = cell
			} else if b, ok := bestFixed[cell.Dataset]; !ok || cell.Runs < b.Runs ||
				(cell.Runs == b.Runs && cell.NsPerOp < b.NsPerOp) {
				// "Best" is fewest runs — the quantity run-generation policies
				// control, and what merge I/O pays for on real devices —
				// with wall time as the tie-break.
				bestFixed[cell.Dataset] = cell
			}
		}
	}
	for _, dist := range dists {
		a, b := autoCell[distName[dist]], bestFixed[distName[dist]]
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"policy matrix %s: auto generated %d runs vs best fixed policy's %d (%s) — %.2fx the runs, %.2fx the time (%d switches)",
			distName[dist], a.Runs, b.Runs, b.Policy,
			float64(a.Runs)/float64(b.Runs), float64(a.NsPerOp)/float64(b.NsPerOp), a.Switches))
	}
	var rsRev, autoRev policyCell
	for _, c := range rep.PolicyMatrix {
		if c.Dataset == "reverse" {
			if c.Policy == "rs" {
				rsRev = c
			}
			if c.Policy == "auto" {
				autoRev = c
			}
		}
	}
	if autoRev.Runs > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"descending input: classic rs generated %d runs, auto %d — %.1fx fewer",
			rsRev.Runs, autoRev.Runs, float64(rsRev.Runs)/float64(autoRev.Runs)))
	}

	// Keyed × policy × distribution matrix: the policy sweep again, once
	// per comparison mode, with the generation/merge phase split attached.
	// Run counts are identical between modes by construction (the keyed
	// path makes pointwise the same decisions), so the ns columns isolate
	// what normalized keys are worth per policy and input shape.
	fmt.Printf("\nkeyed × policy × distribution matrix (%d records, %d memory):\n", *mn, *mem)
	keyedNs := map[string]int64{}
	for _, dist := range dists {
		data := repro.Dataset(dist, *mn, 42)
		for _, pol := range repro.Policies() {
			for _, mode := range []string{"keyed", "comparator"} {
				opts := []repro.Option{
					repro.WithConfig(func() repro.Config {
						c := repro.DefaultConfig(*mem)
						c.Policy = pol
						return c
					}()),
					repro.WithCodec(repro.RecordCodec()),
					repro.WithKey(record.Key),
				}
				if mode == "comparator" {
					opts = append(opts, repro.WithoutKeys())
				}
				var stats repro.Stats
				best := int64(-1)
				for trial := 0; trial < 2; trial++ {
					s, err := repro.New(record.Less, opts...)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					start := time.Now()
					_, st, err := s.SortSlice(nil, data)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
						best, stats = ns, st
					}
				}
				cell := keyedCell{
					Dataset:      distName[dist],
					Policy:       pol,
					Mode:         modeOf(stats),
					Runs:         stats.Runs,
					GenerationNs: phaseNs(stats, "generate"),
					MergeNs:      phaseNs(stats, "merge"),
					NsPerOp:      best,
					RecordsPerS:  float64(*mn) / (float64(best) / 1e9),
				}
				rep.KeyedMatrix = append(rep.KeyedMatrix, cell)
				keyedNs[cell.Dataset+"/"+pol+"/"+cell.Mode] = best
				fmt.Printf("  %-11s %-11s %-10s %6d runs %12d ns (gen %12d, merge %12d)\n",
					cell.Dataset, cell.Policy, cell.Mode, cell.Runs,
					cell.NsPerOp, cell.GenerationNs, cell.MergeNs)
			}
		}
	}
	for _, pol := range repro.Policies() {
		var ratio float64
		n := 0
		for _, dist := range dists {
			k := keyedNs[distName[dist]+"/"+pol+"/keyed"]
			c := keyedNs[distName[dist]+"/"+pol+"/comparator"]
			if k > 0 && c > 0 {
				ratio += float64(c) / float64(k)
				n++
			}
		}
		if n > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"keyed matrix %s: keyed mode averaged %.2fx the comparator mode's throughput across the six distributions",
				pol, ratio/float64(n)))
		}
	}

	// Storage matrix: every spill backend over spill streams at the two
	// compressibility extremes (plus sorted keys in between), full external
	// sorts at the paper-style budget. "dup" folds keys to 64 values and
	// zeroes payloads — the dup-heavy, compressible stream; "random" fills
	// both words from a PRNG — incompressible, the worst case a compressing
	// backend must not make worse than one frame per block.
	rng := rand.New(rand.NewSource(42))
	storageDists := []struct {
		name string
		data []record.Record
	}{
		{"dup", func() []record.Record {
			out := make([]record.Record, *mn)
			for i := range out {
				out[i] = record.Record{Key: int64(rng.Intn(64)), Aux: 0}
			}
			return out
		}()},
		{"sorted", func() []record.Record {
			out := make([]record.Record, *mn)
			for i := range out {
				out[i] = record.Record{Key: int64(i), Aux: uint64(i)}
			}
			return out
		}()},
		{"random", func() []record.Record {
			out := make([]record.Record, *mn)
			for i := range out {
				out[i] = record.Record{Key: int64(rng.Uint64() >> 1), Aux: rng.Uint64()}
			}
			return out
		}()},
	}
	type backendSpec struct {
		comp   string
		budget int64
	}
	backends := []backendSpec{
		{"raw", 0}, {"none", 0}, {"flate", 0}, {"gzip", 0},
		{"flate", 4 << 20}, // tiered: runs start in a 4 MiB memory tier
	}
	fmt.Printf("\nstorage × distribution matrix (%d records, %d memory):\n", *mn, *mem)
	ratio := map[string]float64{}
	for _, dist := range storageDists {
		for _, be := range backends {
			c := repro.DefaultConfig(*mem)
			c.Storage = repro.Storage{Compression: be.comp, MemoryBudgetBytes: be.budget}
			var stats repro.Stats
			best := int64(-1)
			for trial := 0; trial < 2; trial++ {
				start := time.Now()
				_, st, err := repro.SortSlice(dist.data, c)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
					best, stats = ns, st
				}
			}
			cell := storageCell{
				Dataset:        dist.name,
				Compression:    be.comp,
				SpillMemBudget: be.budget,
				RawSpilled:     stats.IO.RawBytesWritten,
				StoredSpilled:  stats.IO.StoredBytesWritten,
				Ratio:          stats.IO.CompressionRatio(),
				Blocks:         stats.IO.BlocksWritten,
				Overflows:      stats.IO.Overflows,
				VerifyFailures: stats.IO.VerifyFailures,
				NsPerOp:        best,
				RecordsPerS:    float64(*mn) / (float64(best) / 1e9),
			}
			rep.StorageMatrix = append(rep.StorageMatrix, cell)
			fmt.Printf("  %-7s %-6s budget=%-8d %10d raw -> %10d stored (%.2fx) %3d overflows %12d ns\n",
				cell.Dataset, cell.Compression, cell.SpillMemBudget,
				cell.RawSpilled, cell.StoredSpilled, cell.Ratio, cell.Overflows, cell.NsPerOp)
			if be.budget == 0 {
				ratio[dist.name+"/"+be.comp] = cell.Ratio
			}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"storage matrix: flate spilled %.2fx fewer bytes than raw on the dup-heavy stream (gzip %.2fx); "+
			"incompressible random stayed at %.2fx (stored-block fallback caps the overhead at one 20-byte frame per 4 KiB block)",
		ratio["dup/flate"], ratio["dup/gzip"], ratio["random/flate"]))
	rep.Notes = append(rep.Notes,
		"spill integrity: every framed backend CRC32-checksums each block; TestCorruptSpillSurfacesChecksumError "+
			"(internal/extsort) pins that a flipped byte in a spilled block fails the merge with storage.ErrChecksum instead of returning wrong output")

	// Cores × shards scaling matrix: the range-partitioned distribution
	// sort (Config.Shards) over a uniform random stream, swept across
	// GOMAXPROCS settings. Keys are unique (Aux is derived from Key), so
	// every cell's output is byte-identical by the sharding guarantee —
	// the checksum column proves it at a scale the tests cannot afford.
	if *sn > 0 {
		rep.CoresOnline = runtime.NumCPU()
		rep.ShardRecords = *sn
		rep.ShardMemory = *smem
		fmt.Printf("\ncores × shards matrix (%d records, %d memory, %d cores online):\n",
			*sn, *smem, rep.CoresOnline)
		shardData := repro.Dataset(repro.DatasetRandom, *sn, 42)
		for i := range shardData {
			shardData[i].Aux = uint64(shardData[i].Key) * 0x9E3779B97F4A7C15
		}
		prevProcs := runtime.GOMAXPROCS(0)
		wantSum := ""
		oneCore := map[int]int64{} // shards -> ns at GOMAXPROCS=1
		for _, cores := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(cores)
			for _, shards := range []int{1, 4, 8} {
				s, err := repro.New(record.Less,
					repro.WithConfig(repro.DefaultConfig(*smem)),
					repro.WithCodec(repro.RecordCodec()),
					repro.WithKey(record.Key),
					repro.WithShards(shards))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				sink := newChecksumSink()
				start := time.Now()
				st, err := s.Sort(nil, record.NewSliceReader(shardData), sink)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				ns := time.Since(start).Nanoseconds()
				cell := shardCell{
					Cores:       cores,
					Shards:      shards,
					NsPerOp:     ns,
					RecordsPerS: float64(*sn) / (float64(ns) / 1e9),
					Checksum:    sink.sum(),
				}
				if shards > 1 {
					cell.PartitionNs = phaseNs(st, "partition")
				} else {
					cell.PartitionNs = phaseNs(st, "generate")
				}
				cell.MergeNs = phaseNs(st, "merge")
				if wantSum == "" {
					wantSum = cell.Checksum
				} else if cell.Checksum != wantSum {
					fmt.Fprintf(os.Stderr, "shard matrix: output diverged at cores=%d shards=%d: %s != %s\n",
						cores, shards, cell.Checksum, wantSum)
					os.Exit(1)
				}
				if cores == 1 {
					oneCore[shards] = ns
				}
				rep.ShardMatrix = append(rep.ShardMatrix, cell)
				fmt.Printf("  cores=%d shards=%d %14d ns %12.0f records/s  checksum %s\n",
					cores, shards, cell.NsPerOp, cell.RecordsPerS, cell.Checksum)
			}
		}
		runtime.GOMAXPROCS(prevProcs)
		var best shardCell
		for _, c := range rep.ShardMatrix {
			if c.Cores == 8 && c.Shards == 8 {
				best = c
			}
		}
		if base := oneCore[1]; base > 0 && best.NsPerOp > 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"shard matrix: every cell produced checksum %s — sharded output is byte-identical to the "+
					"single-stream sort at every cores × shards setting; 8-core 8-shard ran at %.2fx the "+
					"1-core 1-shard wall (%d vs %d ns) with %d cores physically online — scaling beyond "+
					"cores_online is bounded by the hardware, not the engine",
				wantSum, float64(base)/float64(best.NsPerOp), best.NsPerOp, base, rep.CoresOnline))
		}
	}

	// Selection × distribution × k matrix: order-statistic queries over the
	// paper's six distributions. Every (distribution, k) pair runs the
	// dualheap Select path at an in-memory budget; each distribution also
	// runs the full-sort-then-index baseline at the same budget (its cost is
	// k-independent), and — at the middle k — external Select at the paper
	// budget (the spill path) plus the soft-heap approximate path and a
	// three-point Quantiles call. Selection must beat the baseline at k ≪ n.
	selSorter := func(budget int) *repro.Sorter[record.Record] {
		s, err := repro.New(record.Less,
			repro.WithConfig(repro.DefaultConfig(budget)),
			repro.WithCodec(repro.RecordCodec()),
			repro.WithKey(record.Key))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return s
	}
	// timeSel reports the faster of two runs of one selection query.
	timeSel := func(run func() (repro.SelectStats, error)) (int64, repro.SelectStats) {
		best := int64(-1)
		var stats repro.SelectStats
		for trial := 0; trial < 2; trial++ {
			start := time.Now()
			st, err := run()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
				best, stats = ns, st
			}
		}
		return best, stats
	}
	selCell := func(dist, op string, k int, ns int64, st repro.SelectStats) selectionCell {
		cell := selectionCell{
			Dataset: dist, Op: op, K: k,
			Spilled: st.Sorted, Swaps: st.Swaps,
			NsPerOp:     ns,
			RecordsPerS: float64(*mn) / (float64(ns) / 1e9),
		}
		rep.SelectionMatrix = append(rep.SelectionMatrix, cell)
		fmt.Printf("  %-11s %-15s k=%-8d %12d ns  spilled=%-5v %8d swaps\n",
			cell.Dataset, cell.Op, cell.K, cell.NsPerOp, cell.Spilled, cell.Swaps)
		return cell
	}
	fmt.Printf("\nselection × distribution × k matrix (%d records, in-memory budget %d / spill budget %d):\n",
		*mn, *mn, *mem)
	ks := []int{100, *mn / 64, *mn / 2}
	for _, dist := range dists {
		data := repro.Dataset(dist, *mn, 42)
		name := distName[dist]

		// Full-sort-then-index baseline: sort everything at the same
		// in-memory budget, read the answer out of the sorted slice. One
		// cell per distribution — indexing is free, so k doesn't matter.
		baseNs := int64(-1)
		for trial := 0; trial < 2; trial++ {
			start := time.Now()
			sorted, _, err := repro.SortSlice(data, repro.DefaultConfig(*mn))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			_ = sorted[len(sorted)/2]
			if ns := time.Since(start).Nanoseconds(); baseNs < 0 || ns < baseNs {
				baseNs = ns
			}
		}
		baseCell := selCell(name, "sort_then_index", 0, baseNs, repro.SelectStats{})

		var smallK selectionCell
		for _, k := range ks {
			ns, st := timeSel(func() (repro.SelectStats, error) {
				_, st, err := selSorter(*mn).Select(nil, record.NewSliceReader(data), k)
				return st, err
			})
			cell := selCell(name, "select", k, ns, st)
			if k == ks[0] {
				smallK = cell
			}
		}

		midK := ks[1]
		ns, st := timeSel(func() (repro.SelectStats, error) {
			_, st, err := selSorter(*mem).Select(nil, record.NewSliceReader(data), midK)
			return st, err
		})
		selCell(name, "select_spill", midK, ns, st)
		ns, st = timeSel(func() (repro.SelectStats, error) {
			_, st, err := selSorter(*mn).ApproxSelect(nil, record.NewSliceReader(data), midK, 0.01)
			return st, err
		})
		selCell(name, "approx_select", midK, ns, st)
		ns, st = timeSel(func() (repro.SelectStats, error) {
			_, st, err := selSorter(*mn).Quantiles(nil, record.NewSliceReader(data), []float64{0.5, 0.9, 0.99})
			return st, err
		})
		selCell(name, "quantiles", 0, ns, st)

		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"selection matrix %s: dualheap select k=%d answered in %d ns vs full-sort-then-index %d ns — %.1fx faster",
			name, smallK.K, smallK.NsPerOp, baseCell.NsPerOp,
			float64(baseCell.NsPerOp)/float64(smallK.NsPerOp)))
	}

	var sortNs, topkNs int64
	var keyedRow, compRow, obsRow, plainRow, durableRow, resumeRow result
	for _, r := range rep.Results {
		switch r.Name {
		case "sortslice_1m":
			sortNs = r.NsPerOp
		case "topk100_1m":
			topkNs = r.NsPerOp
		case "sortslice_1m_keyed":
			keyedRow = r
		case "sortslice_1m_comparator":
			compRow = r
		case "sortslice_1m_keyed_obs":
			obsRow = r
		case "sortslice_1m_2wrs":
			plainRow = r
		case "sortslice_1m_durable":
			durableRow = r
		case "resume_1m_killed_half":
			resumeRow = r
		}
	}
	if plainRow.NsPerOp > 0 && durableRow.NsPerOp > 0 {
		note := fmt.Sprintf(
			"durability: the manifest-enabled 2wrs sort ran at %.3fx the plain 2wrs wall (%d vs %d ns/op) — "+
				"the price of a checksummed manifest line per run boundary plus content checksums over every spilled byte",
			float64(durableRow.NsPerOp)/float64(plainRow.NsPerOp), durableRow.NsPerOp, plainRow.NsPerOp)
		if resumeRow.NsPerOp > 0 && resumeStats.Runs > 0 {
			note += fmt.Sprintf("; a kill at half input plus Resume completed in %.2fx the durable full-sort wall, "+
				"recovering %d of %d runs from the manifest instead of regenerating them",
				float64(resumeRow.NsPerOp)/float64(durableRow.NsPerOp),
				resumeStats.RunsRecovered, resumeStats.Runs)
		}
		rep.Notes = append(rep.Notes, note)
	}
	if keyedRow.NsPerOp > 0 && obsRow.NsPerOp > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"observability overhead: tracing+metrics enabled sortslice_1m_keyed ran at %.3fx the disabled wall "+
				"(%d vs %d ns/op; budget <1.05x, enforced by TestMetricsOverheadGuard)",
			float64(obsRow.NsPerOp)/float64(keyedRow.NsPerOp), obsRow.NsPerOp, keyedRow.NsPerOp))
	}
	if keyedRow.NsPerOp > 0 && compRow.NsPerOp > 0 {
		note := fmt.Sprintf(
			"keyed sortslice_1m (quick policy): %.0f records/s keyed vs %.0f comparator — %.2fx; "+
				"generation %d ns vs %d, merge %d ns vs %d",
			keyedRow.RecordsPerS, compRow.RecordsPerS,
			float64(compRow.NsPerOp)/float64(keyedRow.NsPerOp),
			keyedRow.GenerationNs, compRow.GenerationNs,
			keyedRow.MergeNs, compRow.MergeNs)
		for _, b := range rep.Baseline {
			if b.Name == "sortslice_1m" && b.RecordsPerS > 0 {
				note += fmt.Sprintf("; %.2fx the previous report's comparator sortslice_1m (%.0f records/s)",
					keyedRow.RecordsPerS/b.RecordsPerS, b.RecordsPerS)
			}
		}
		rep.Notes = append(rep.Notes, note)
	}
	if sortNs > 0 && topkNs > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"topk100_1m avoided the full merge: OpStats{Sorted:%v, Runs:%d, MergeOps:%d} "+
				"(bounded-heap selection, nothing spilled), %.1fx faster than sortslice_1m on the same input",
			topkStats.Sorted, topkStats.Sort.Runs, topkStats.Sort.MergeOps,
			float64(sortNs)/float64(topkNs)))
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%d.json", benchNum)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
