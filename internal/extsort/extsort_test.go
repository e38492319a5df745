package extsort

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/iosim"
	"repro/internal/record"
	"repro/internal/vfs"
)

func sortAndCheck(t *testing.T, recs []record.Record, cfg Config) Stats {
	t.Helper()
	out, stats, err := SortSlice(recs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out) {
		t.Fatal("output not sorted")
	}
	if !record.NewMultiset(out).Equal(record.NewMultiset(recs)) {
		t.Fatal("output is not a permutation of the input")
	}
	return stats
}

func TestSortAllAlgorithmsAllDatasets(t *testing.T) {
	const n, m = 5000, 200
	for _, kind := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 3, Noise: 100})
		for _, alg := range []Algorithm{TwoWayRS, RS, LoadSortStore} {
			cfg := Recommended(m)
			cfg.Algorithm = alg
			stats := sortAndCheck(t, recs, cfg)
			if stats.Records != n {
				t.Fatalf("%v/%v: records = %d, want %d", kind, alg, stats.Records, n)
			}
			if stats.Runs == 0 {
				t.Fatalf("%v/%v: no runs recorded", kind, alg)
			}
		}
	}
}

func TestSortSmallFanIn(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20000, Seed: 1})
	cfg := Recommended(100)
	cfg.FanIn = 2
	stats := sortAndCheck(t, recs, cfg)
	if stats.MergePasses < 3 {
		t.Fatalf("fan-in 2 over %d inputs should take several passes, got %d",
			stats.MergeInputs, stats.MergePasses)
	}
}

func TestSortEmptyInput(t *testing.T) {
	stats := sortAndCheck(t, nil, Recommended(50))
	if stats.Records != 0 || stats.Runs != 0 {
		t.Fatalf("empty sort stats = %+v", stats)
	}
}

func TestSortSingleRecord(t *testing.T) {
	stats := sortAndCheck(t, record.FromKeys(7), Recommended(50))
	if stats.Runs != 1 {
		t.Fatalf("runs = %d, want 1", stats.Runs)
	}
}

func TestSortRejectsBadConfig(t *testing.T) {
	if _, _, err := SortSlice[record.Record](nil, Config{Memory: 0}, RecordOps()); err == nil {
		t.Fatal("memory 0 should fail")
	}
	if _, _, err := SortSlice[record.Record](nil, Config{Memory: 100, Algorithm: Algorithm(42)}, RecordOps()); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestSortCleansUpTempFiles(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 4})
	fs := vfs.NewMemFS()
	var out record.SliceWriter
	if _, err := Sort(record.NewSliceReader(recs), &out, fs, Recommended(100), RecordOps()); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

func TestSortWithSimulatedDisk(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 10000, Seed: 5})
	disk := iosim.NewDisk(iosim.Defaults2010())
	fs := iosim.NewFS(vfs.NewMemFS(), disk)
	cfg := Recommended(200)
	cfg.Clock = disk.Elapsed
	var out record.SliceWriter
	stats, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out.Vals) {
		t.Fatal("output not sorted")
	}
	if stats.RunGenSim <= 0 || stats.MergeSim <= 0 {
		t.Fatalf("simulated times not captured: %+v", stats)
	}
	if stats.TotalSim() != stats.RunGenSim+stats.MergeSim {
		t.Fatal("TotalSim inconsistent")
	}
	if disk.Stats().Bytes() == 0 {
		t.Fatal("disk accounting saw no traffic")
	}
}

func TestStatsTotals(t *testing.T) {
	s := Stats{RunGenWall: time.Second, MergeWall: 2 * time.Second,
		RunGenSim: 3 * time.Second, MergeSim: 4 * time.Second}
	if s.TotalWall() != 3*time.Second || s.TotalSim() != 7*time.Second {
		t.Fatalf("totals wrong: %+v", s)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{TwoWayRS, RS, LoadSortStore} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = (%v, %v)", a.String(), got, err)
		}
	}
	if _, err := ParseAlgorithm("quicksort"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
	if Algorithm(9).String() == "" {
		t.Fatal("unknown algorithm should still print")
	}
}

func TestCustomTWRSConfigRespected(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 10000, Seed: 6, Noise: 50})
	cfg := Config{
		Algorithm: TwoWayRS,
		Memory:    300,
		FanIn:     10,
		TWRS: core.Config{
			Setup:      core.BothBuffers,
			BufferFrac: 0.2,
			Input:      core.InMedian,
			Output:     core.OutBalancing,
		},
	}
	stats := sortAndCheck(t, recs, cfg)
	// Mixed data with a victim buffer must collapse to far fewer runs than
	// RS's n/(2m) ≈ 16.
	if stats.Runs > 6 {
		t.Fatalf("mixed data with big victim buffer gave %d runs", stats.Runs)
	}
}

func TestRSvsTwoWayOnReverse(t *testing.T) {
	// End to end, 2WRS must move far fewer bytes through the merge on
	// reverse-sorted input (Theorem 3 vs 4 consequences).
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: 20000, Seed: 7})
	rsCfg := Recommended(200)
	rsCfg.Algorithm = RS
	rsStats := sortAndCheck(t, recs, rsCfg)
	twCfg := Recommended(200)
	twStats := sortAndCheck(t, recs, twCfg)
	if twStats.Runs != 1 {
		t.Fatalf("2WRS runs = %d, want 1", twStats.Runs)
	}
	if rsStats.Runs < 50 {
		t.Fatalf("RS runs = %d, want ≈100", rsStats.Runs)
	}
	if twStats.MergePasses >= rsStats.MergePasses {
		t.Fatalf("2WRS merge passes (%d) should be fewer than RS (%d)",
			twStats.MergePasses, rsStats.MergePasses)
	}
}

// TestGenerateRunsBoundary exercises the run-set boundary directly: phase
// one alone, then the three ways to dispose of a RunSet — OpenMerged,
// Merge, Discard — with file-system cleanliness pinned after each.
func TestGenerateRunsBoundary(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20_000, Seed: 3, Noise: 1000})
	mk := func() (*RunSet[record.Record], vfs.FS) {
		fs := vfs.NewMemFS()
		rset, err := GenerateRuns[record.Record](record.NewSliceReader(recs), fs, Recommended(512), RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		return rset, fs
	}

	// Phase-one stats are complete before any merge work happens.
	rset, fs := mk()
	st := rset.Stats()
	if st.Records != 20_000 || st.Runs < 2 || st.MergeOps != 0 || st.MergeInputs != 0 {
		t.Fatalf("run-generation stats %+v, want runs and no merge half", st)
	}
	if len(rset.Runs()) != st.Runs {
		t.Fatalf("Runs() has %d entries, stats say %d", len(rset.Runs()), st.Runs)
	}

	// OpenMerged streams the globally sorted order.
	ms, err := rset.OpenMerged()
	if err != nil {
		t.Fatal(err)
	}
	var prev record.Record
	n := 0
	for {
		r, err := ms.Read()
		if err != nil {
			break
		}
		if n > 0 && record.Less(r, prev) {
			t.Fatalf("merged stream out of order at %d", n)
		}
		prev = r
		n++
	}
	if n != 20_000 {
		t.Fatalf("streamed %d records, want 20000", n)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("files left after streamed merge: %v", names)
	}

	// Merge completes the sort with full two-phase stats.
	rset, fs = mk()
	var out record.SliceWriter
	st, err = rset.Merge(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out.Vals) || st.MergeInputs != st.Runs {
		t.Fatalf("Merge stats %+v over %d records", st, len(out.Vals))
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("files left after Merge: %v", names)
	}

	// Discard deletes everything without merging.
	rset, fs = mk()
	if err := rset.Discard(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("files left after Discard: %v", names)
	}
}

// TestSortEqualsGenerateRunsPlusMerge pins that Sort is exactly the
// composition of the two halves of the boundary.
func TestSortEqualsGenerateRunsPlusMerge(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 10_000, Seed: 4, Noise: 1000})
	cfg := Recommended(256)
	cfg.Parallelism = 1

	direct, dstats, err := SortSlice(recs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	rset, err := GenerateRuns[record.Record](record.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	var out record.SliceWriter
	cstats, err := rset.Merge(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(out.Vals) {
		t.Fatalf("composed sort has %d records, direct %d", len(out.Vals), len(direct))
	}
	for i := range direct {
		if direct[i] != out.Vals[i] {
			t.Fatalf("record %d differs: %v vs %v", i, direct[i], out.Vals[i])
		}
	}
	if dstats.Runs != cstats.Runs || dstats.MergeOps != cstats.MergeOps || dstats.MergePasses != cstats.MergePasses {
		t.Fatalf("stats diverge: direct %+v, composed %+v", dstats, cstats)
	}
}
