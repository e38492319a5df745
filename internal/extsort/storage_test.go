package extsort

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// dupHeavy folds keys to few distinct values and zeroes the payload: the
// compressible spill stream of the storage benchmarks.
func dupHeavy(n int) []record.Record {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 7})
	for i := range recs {
		recs[i].Key %= 64
		recs[i].Aux = 0
	}
	return recs
}

func sortedCopy(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

// TestSortAcrossStorageBackends runs the full sort — 2WRS, so forward and
// backward chain layouts both exercise the framing — under every backend
// and checks the output, the accounting, and that no spill file survives.
func TestSortAcrossStorageBackends(t *testing.T) {
	recs := dupHeavy(30000)
	want := sortedCopy(recs)
	for _, comp := range []string{"raw", "none", "flate", "gzip"} {
		for _, budget := range []int64{0, 16 << 10} {
			t.Run(fmt.Sprintf("%s/budget=%d", comp, budget), func(t *testing.T) {
				fs := vfs.NewMemFS()
				cfg := Recommended(500)
				cfg.Storage = storage.Config{Compression: comp, MemoryBudgetBytes: budget}
				var out record.SliceWriter
				stats, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Vals) != len(want) {
					t.Fatalf("got %d records, want %d", len(out.Vals), len(want))
				}
				for i := range want {
					if out.Vals[i] != want[i] {
						t.Fatalf("record %d = %v, want %v", i, out.Vals[i], want[i])
					}
				}
				if stats.IO.VerifyFailures != 0 {
					t.Fatalf("verify failures on clean data: %d", stats.IO.VerifyFailures)
				}
				if stats.IO.RawBytesWritten == 0 || stats.IO.RawBytesRead == 0 {
					t.Fatalf("no I/O accounted: %+v", stats.IO)
				}
				if comp == "flate" || comp == "gzip" {
					if stats.IO.StoredBytesWritten*2 > stats.IO.RawBytesWritten {
						t.Fatalf("%s stored %d of %d raw bytes: expected >= 2x reduction on dup-heavy data",
							comp, stats.IO.StoredBytesWritten, stats.IO.RawBytesWritten)
					}
				}
				if budget > 0 && stats.IO.Overflows == 0 {
					t.Fatalf("tiered sort with a %d-byte budget never overflowed", budget)
				}
				if names, _ := fs.Names(); len(names) != 0 {
					t.Fatalf("spill files left behind: %v", names)
				}
				if !strings.Contains(stats.Storage, comp) && comp != "raw" {
					t.Fatalf("Stats.Storage = %q, want mention of %q", stats.Storage, comp)
				}
			})
		}
	}
}

// TestCorruptSpillSurfacesChecksumError flips one byte of a spilled block
// between the two phases: the merge must fail with a checksum error, never
// produce silently wrong output.
func TestCorruptSpillSurfacesChecksumError(t *testing.T) {
	for _, comp := range []string{"none", "flate", "gzip"} {
		t.Run(comp, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(300)
			// Classic RS keeps every run in a single forward file, so any
			// spill file is a plain block stream we can poke a byte into.
			cfg.Algorithm = RS
			cfg.Storage.Compression = comp
			recs := dupHeavy(20000)
			rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, RecordOps())
			if err != nil {
				t.Fatal(err)
			}
			names, err := fs.Names()
			if err != nil || len(names) == 0 {
				t.Fatalf("no spill files: %v, %v", names, err)
			}
			// Flip a payload byte inside the first block of one run file.
			f, err := fs.Open(names[0])
			if err != nil {
				t.Fatal(err)
			}
			var cell [1]byte
			// Past the frame header and, for gzip, past its 10-byte stream
			// header whose metadata bytes do not influence the payload.
			const off = 20 + 16
			if _, err := f.ReadAt(cell[:], off); err != nil {
				t.Fatal(err)
			}
			cell[0] ^= 0xa5
			if _, err := f.WriteAt(cell[:], off); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var out record.SliceWriter
			_, err = rset.Merge(&out)
			if err == nil {
				t.Fatal("merge of corrupted spill data succeeded")
			}
			if !errors.Is(err, storage.ErrChecksum) && !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("error = %v, want a storage checksum/corruption error", err)
			}
			if rset.Stats().IO.VerifyFailures == 0 {
				t.Fatal("verify failure not accounted")
			}
			rset.Discard()
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("spill files left after Discard: %v", names)
			}
		})
	}
}

// failAfterReader yields records until its budget runs out, then fails,
// simulating a source error (or cancellation) mid-generation.
type failAfterReader struct {
	recs []record.Record
	n    int
}

var errMidStream = errors.New("injected mid-stream failure")

func (r *failAfterReader) Read() (record.Record, error) {
	if r.n >= len(r.recs) {
		return record.Record{}, errMidStream
	}
	r.n++
	return r.recs[r.n-1], nil
}

// TestNoSpillLeaksOnErrors drives both failure classes — a source error
// mid-generation and a cancellation mid-merge — under every backend and
// requires that no spill file survives the failed sort.
func TestNoSpillLeaksOnErrors(t *testing.T) {
	recs := dupHeavy(20000)
	for _, comp := range []string{"raw", "flate"} {
		for _, budget := range []int64{0, 8 << 10} {
			name := fmt.Sprintf("%s/budget=%d", comp, budget)
			t.Run("midgen/"+name, func(t *testing.T) {
				fs := vfs.NewMemFS()
				cfg := Recommended(300)
				cfg.Storage = storage.Config{Compression: comp, MemoryBudgetBytes: budget}
				var out record.SliceWriter
				_, err := Sort(&failAfterReader{recs: recs}, &out, fs, cfg, RecordOps())
				if !errors.Is(err, errMidStream) {
					t.Fatalf("error = %v, want injected failure", err)
				}
				if names, _ := fs.Names(); len(names) != 0 {
					t.Fatalf("spill files left after mid-generation failure: %v", names)
				}
			})
			t.Run("midmerge/"+name, func(t *testing.T) {
				fs := vfs.NewMemFS()
				cfg := Recommended(300)
				cfg.Storage = storage.Config{Compression: comp, MemoryBudgetBytes: budget}
				cfg.FanIn = 2          // force several merge passes
				var calls atomic.Int64 // Cancel is polled from parallel merge goroutines
				cfg.Cancel = func() error {
					if calls.Add(1) > 3 {
						return errMidStream
					}
					return nil
				}
				var out record.SliceWriter
				_, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
				if !errors.Is(err, errMidStream) {
					t.Fatalf("error = %v, want injected cancellation", err)
				}
				if names, _ := fs.Names(); len(names) != 0 {
					t.Fatalf("spill files left after mid-merge cancellation: %v", names)
				}
			})
		}
	}
}

// TestDiscardSweepsAllBackends generates runs (2WRS: forward files plus
// backward chains) on every backend and checks Discard leaves nothing, on
// either tier.
func TestDiscardSweepsAllBackends(t *testing.T) {
	recs := dupHeavy(20000)
	for _, comp := range []string{"raw", "none", "flate", "gzip"} {
		t.Run(comp, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(300)
			cfg.Storage = storage.Config{Compression: comp, MemoryBudgetBytes: 8 << 10}
			rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, RecordOps())
			if err != nil {
				t.Fatal(err)
			}
			if names, _ := rset.Store().Names(); len(names) == 0 {
				t.Fatal("no spill files generated")
			}
			if err := rset.Discard(); err != nil {
				t.Fatal(err)
			}
			if names, _ := rset.Store().Names(); len(names) != 0 {
				t.Fatalf("files left after Discard: %v", names)
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("backing files left after Discard: %v", names)
			}
		})
	}
}

// TestStatsIOCoversBothPhases checks the run-generation snapshot grows into
// the full two-phase accounting after the merge.
func TestStatsIOCoversBothPhases(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Recommended(300)
	cfg.Storage.Compression = "flate"
	recs := dupHeavy(20000)
	rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	genIO := rset.Stats().IO
	if genIO.RawBytesWritten == 0 || genIO.RawBytesRead != 0 {
		t.Fatalf("after generation: %+v", genIO)
	}
	var out record.SliceWriter
	stats, err := rset.Merge(&out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IO.RawBytesRead == 0 {
		t.Fatalf("merge read nothing: %+v", stats.IO)
	}
	if stats.IO.RawBytesWritten < genIO.RawBytesWritten {
		t.Fatalf("merge accounting went backwards: %+v then %+v", genIO, stats.IO)
	}
}

// TestDiscardSparesUnrelatedFiles pins that the Discard sweep recognises
// only names the sort's Namer produced: a user file that merely shares the
// prefix must survive a failed sort in a shared directory.
func TestDiscardSparesUnrelatedFiles(t *testing.T) {
	fs := vfs.NewMemFS()
	for _, name := range []string{"sort-mydata.rec", "sort-data", "unrelated", "sort-12-x"} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("precious"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	cfg := Recommended(300)
	cfg.Storage.Compression = "flate"
	var out record.SliceWriter
	_, err := Sort(&failAfterReader{recs: dupHeavy(20000)}, &out, fs, cfg, RecordOps())
	if !errors.Is(err, errMidStream) {
		t.Fatalf("error = %v, want injected failure", err)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sort-12-x", "sort-data", "sort-mydata.rec", "unrelated"}
	if len(names) != len(want) {
		t.Fatalf("names after failed sort = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names after failed sort = %v, want %v", names, want)
		}
	}
}

// TestIsSpillName pins the sweep's name recognition against the Namer's
// actual format.
func TestIsSpillName(t *testing.T) {
	cases := map[string]bool{
		"sort-0001-rs":     true,
		"sort-0001-s2.17":  true, // backward chain file
		"sort-12345-merge": true, // sequence numbers can outgrow 4 digits
		"sort-mydata.rec":  false,
		"sort-data":        false,
		"sort-12-x":        false, // too few digits for the Namer's %04d
		"sort-0001-":       false, // no role
		"sort2-0001-rs":    false, // different prefix
		"unrelated":        false,
		"sort-0001rs":      false, // no separator after the sequence
	}
	for name, want := range cases {
		if got := isSpillName("sort", name); got != want {
			t.Errorf("isSpillName(sort, %q) = %v, want %v", name, got, want)
		}
	}
}
