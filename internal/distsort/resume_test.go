package distsort

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/manifest"
	"repro/internal/manifest/crashfs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// durableShardedCfg is the durable template every crash test uses: a
// deterministic policy (required by manifests) and an explicit shard
// count (required by durable sharded sorts).
func durableShardedCfg(shards, memory int) Config {
	return Config{
		Shards:  shards,
		Extsort: extsort.Config{Policy: policy.TwoWayRS, Memory: memory, Manifest: true},
	}
}

// TestShardedResumeCrashMatrix extends the driver's TestResumeCrashMatrix
// one layer up: kill a durable sharded sort at random points of its real
// write stream — mid-shard, mid-merge, before or after individual shard
// manifests commit — then Resume over the surviving file system. The
// resumed output must be byte-identical to an uninterrupted run, and
// across the matrix at least one resume must have recovered manifest runs
// from completed shard state rather than regenerating everything.
func TestShardedResumeCrashMatrix(t *testing.T) {
	const shards, memory, n = 4, 192, 4800
	vals := recordDataset(gen.Random, n)
	cfg := durableShardedCfg(shards, memory)

	// Uninterrupted durable baseline.
	base := vfs.NewMemFS()
	var ref stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &ref, base, cfg, recOps()); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := ref.Vals

	// Probe pass: measure the full write stream so kill points cover
	// generation, merge and manifest traffic of every shard.
	probe := crashfs.New(vfs.NewMemFS(), crashfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	var sink stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &sink, probe, cfg, recOps()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	total := probe.Written()
	if total <= 0 {
		t.Fatalf("probe wrote %d bytes", total)
	}

	recoveredTotal := 0
	rng := rand.New(rand.NewSource(17))
	kills := 6
	if testing.Short() {
		kills = 3
	}
	for i := 0; i < kills; i++ {
		kill := 1 + rng.Int63n(total)
		torn := i%2 == 0
		t.Run(fmt.Sprintf("kill_%d_torn_%v", kill, torn), func(t *testing.T) {
			surviving := vfs.NewMemFS()
			cfs := crashfs.New(surviving, crashfs.Options{FailAfterBytes: kill, FailAfterOps: -1, Torn: torn})
			var out stream.SliceWriter[record.Record]
			_, err := Sort[record.Record](stream.NewSliceReader(vals), &out, cfs, cfg, recOps())
			if err == nil {
				t.Fatal("crashed pass succeeded despite exhausted write budget")
			}
			if !errors.Is(err, crashfs.ErrCrashed) {
				t.Fatalf("crashed pass: %v", err)
			}

			// "Restart the process": resume over the surviving base FS.
			rcfg := cfg
			rcfg.Extsort.Resume = true
			var res stream.SliceWriter[record.Record]
			st, err := Sort[record.Record](stream.NewSliceReader(vals), &res, surviving, rcfg, recOps())
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !slices.Equal(res.Vals, want) {
				t.Fatalf("resumed output differs from uninterrupted sort (recovered %d runs)", st.RunsRecovered)
			}
			recoveredTotal += st.RunsRecovered

			// Resume must consume all durable state: no manifests or
			// spill files may survive a successful resumed sort.
			names, ferr := surviving.Names()
			if ferr != nil {
				t.Fatalf("Names: %v", ferr)
			}
			if len(names) != 0 {
				t.Fatalf("leftover files after resume: %v", names)
			}
		})
	}
	if recoveredTotal == 0 {
		t.Fatal("no kill point led to recovered manifest runs; matrix never exercised shard reuse")
	}
}

// noRemoveFS refuses every removal, so a durable sharded sort fails in the
// merge phase of the first shard to get there, after that shard committed
// its manifest, with all of its runs still in place.
type noRemoveFS struct{ vfs.FS }

func (noRemoveFS) Remove(string) error { return crashfs.ErrCrashed }

// TestShardedResumeCommittedShard resumes a sharded sort in which at least
// one shard committed. That shard adopts its runs without reading its
// feed, while the partition loop still routes the shard's share of the
// input. Every shard holds several feed and output channels' worth of
// records, so a shard that left its feed unread would block the partition
// loop while its own output blocked on the drain, which starts only after
// the loop.
func TestShardedResumeCommittedShard(t *testing.T) {
	const shards, memory, n = 2, 512, 40000
	vals := recordDataset(gen.Random, n)
	cfg := durableShardedCfg(shards, memory)
	want, _ := runSharded(t, vals, cfg, recOps())

	fs := vfs.NewMemFS()
	var sink stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &sink, noRemoveFS{fs}, cfg, recOps()); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("first pass: err = %v, want the refused removal", err)
	}
	committed := 0
	for i := 0; i < shards; i++ {
		if ms, err := manifest.Load(fs, manifest.Name(fmt.Sprintf("sort-s%02d", i))); err == nil && ms.Committed {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no shard committed its manifest; the test exercises nothing")
	}
	rcfg := cfg
	rcfg.Extsort.Resume = true
	var res stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &res, fs, rcfg, recOps()); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !slices.Equal(res.Vals, want) {
		t.Fatal("resumed output differs from the uninterrupted sort")
	}
}

// TestShardedResumeMidShard pins the headline recovery property
// deterministically: crash late enough that some shards committed runs,
// then check Resume reuses them instead of regenerating from scratch.
func TestShardedResumeMidShard(t *testing.T) {
	const shards, memory, n = 4, 192, 4800
	vals := recordDataset(gen.MixedBalanced, n)
	cfg := durableShardedCfg(shards, memory)

	base := vfs.NewMemFS()
	var ref stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &ref, base, cfg, recOps()); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	probe := crashfs.New(vfs.NewMemFS(), crashfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	var sink stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &sink, probe, cfg, recOps()); err != nil {
		t.Fatalf("probe: %v", err)
	}

	// Kill at 70% of the write stream: well past the first committed
	// runs, before the sort finishes.
	surviving := vfs.NewMemFS()
	cfs := crashfs.New(surviving, crashfs.Options{FailAfterBytes: probe.Written() * 7 / 10, FailAfterOps: -1})
	var out stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &out, cfs, cfg, recOps()); !errors.Is(err, crashfs.ErrCrashed) {
		t.Fatalf("crashed pass: %v", err)
	}

	// The crash must have left at least one per-shard manifest behind.
	names, err := surviving.Names()
	if err != nil {
		t.Fatalf("Names: %v", err)
	}
	manifests := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".manifest") && strings.Contains(name, "-s") {
			manifests++
		}
	}
	if manifests == 0 {
		t.Fatalf("no per-shard manifest survived the crash: %v", names)
	}

	rcfg := cfg
	rcfg.Extsort.Resume = true
	var res stream.SliceWriter[record.Record]
	st, err := Sort[record.Record](stream.NewSliceReader(vals), &res, surviving, rcfg, recOps())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.RunsRecovered == 0 {
		t.Fatal("resume regenerated everything; expected recovered shard runs")
	}
	if !slices.Equal(res.Vals, ref.Vals) {
		t.Fatal("resumed output differs from uninterrupted sort")
	}
}

// TestShardedDurableCleanRun checks that an uninterrupted durable sharded
// sort consumes all its own manifests and spill files.
func TestShardedDurableCleanRun(t *testing.T) {
	vals := recordDataset(gen.Random, 4000)
	fs := vfs.NewMemFS()
	var out stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &out, fs,
		durableShardedCfg(4, 200), recOps()); err != nil {
		t.Fatalf("Sort: %v", err)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatalf("Names: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("durable sort left files behind: %v", names)
	}
}
