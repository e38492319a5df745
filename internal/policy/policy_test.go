package policy

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// result is what one generation pass produced: the runs, the policy that
// made each, the records they hold and Auto's switch count.
type result struct {
	Runs     []runio.Run
	Policies []Kind
	Records  int64
	Switches int
}

func generate(t *testing.T, kind Kind, recs []record.Record, memory int) (result, vfs.FS) {
	t.Helper()
	fs := vfs.NewMemFS()
	g, err := New(kind, false, record.NewSliceReader(recs), runio.RecordEmitter(fs, "pol"), Config{Memory: memory}, record.Key)
	if err != nil {
		t.Fatal(err)
	}
	a, adaptive := g.(Adaptive)
	var res result
	for {
		made := kind
		if adaptive {
			made = a.Kind()
		}
		run, ok, err := g.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		res.Runs = append(res.Runs, run)
		res.Policies = append(res.Policies, made)
		res.Records += run.Records
	}
	if adaptive {
		res.Switches = a.Switches()
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("%v wrote %d records, want %d", kind, res.Records, len(recs))
	}
	return res, fs
}

// verify checks that every run reads back sorted and that the runs union to
// a permutation of the input.
func verify(t *testing.T, fs vfs.FS, runs []runio.Run, input []record.Record) {
	t.Helper()
	union := make(record.Multiset)
	for i, run := range runs {
		r, err := runio.OpenRun(storage.NewRaw(fs), run, 4096, codec.Record16{}, record.Less)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		recs, err := record.ReadAll(r)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		r.Close()
		if !record.IsSorted(recs) {
			t.Fatalf("run %d not sorted", i)
		}
		if int64(len(recs)) != run.Records {
			t.Fatalf("run %d: manifest %d vs read %d", i, run.Records, len(recs))
		}
		for _, rec := range recs {
			union[rec]++
		}
	}
	if !union.Equal(record.NewMultiset(input)) {
		t.Fatal("runs are not a permutation of the input")
	}
}

// sawtooth builds the classic RS killer: a descending staircase of
// ascending teeth. Each tooth ascends for `tooth` records, and every tooth
// sits strictly below the previous one, so the input is locally ascending
// but globally descending.
func sawtooth(n, tooth int) []record.Record {
	recs := make([]record.Record, n)
	teeth := n/tooth + 1
	for i := range recs {
		t, pos := i/tooth, i%tooth
		recs[i] = record.Record{Key: int64(teeth-t)*int64(2*tooth) + int64(pos), Aux: uint64(i)}
	}
	return recs
}

func TestFixedPoliciesAllDistributions(t *testing.T) {
	const n, m = 20000, 500
	for _, kind := range []Kind{TwoWayRS, RS, LSS, Alternating, Quick} {
		for _, dist := range gen.Kinds {
			recs := gen.Generate(gen.Config{Kind: dist, N: n, Seed: 11, Noise: 1000})
			res, fs := generate(t, kind, recs, m)
			if len(res.Runs) == 0 {
				t.Fatalf("%v/%v: no runs", kind, dist)
			}
			for i, p := range res.Policies {
				if p != kind {
					t.Fatalf("%v/%v: run %d attributed to %v", kind, dist, i, p)
				}
			}
			verify(t, fs, res.Runs, recs)
		}
	}
}

func TestAutoAllDistributions(t *testing.T) {
	const n, m = 20000, 500
	for _, dist := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: dist, N: n, Seed: 13, Noise: 1000})
		res, fs := generate(t, Auto, recs, m)
		verify(t, fs, res.Runs, recs)
	}
}

// TestDescendingDegeneratesClassicRSOnly is the adversarial contrast the
// policy layer exists for: on a descending stream classic RS is pinned to
// memory-sized runs, while the alternating and two-way generators absorb
// the trend into runs far beyond 2M.
func TestDescendingDegeneratesClassicRSOnly(t *testing.T) {
	const n, m = 40000, 1000
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: n, Seed: 3, Noise: 100})

	rsRes, rsFS := generate(t, RS, recs, m)
	if len(rsRes.Runs) < n/m {
		t.Fatalf("classic RS produced %d runs on descending input, want ≥ %d (memory-sized degeneration)", len(rsRes.Runs), n/m)
	}
	verify(t, rsFS, rsRes.Runs, recs)

	for _, kind := range []Kind{TwoWayRS, Alternating, Auto} {
		res, fs := generate(t, kind, recs, m)
		// ~2M average run length means at most n/2m runs; allow slack for
		// the leading ascending run the alternation may open with.
		if maxRuns := n / (2 * m); len(res.Runs) > maxRuns {
			t.Fatalf("%v produced %d runs on descending input, want ≤ %d", kind, len(res.Runs), maxRuns)
		}
		verify(t, fs, res.Runs, recs)
	}
}

// TestSawtoothDegeneratesClassicRSOnly: locally ascending teeth on a
// descending staircase fool RS's run-extension rule but not the
// direction-aware generators.
func TestSawtoothDegeneratesClassicRSOnly(t *testing.T) {
	const n, m = 40000, 1000
	recs := sawtooth(n, m/2)

	rsRes, rsFS := generate(t, RS, recs, m)
	if minRuns := (n / m) * 8 / 10; len(rsRes.Runs) < minRuns {
		t.Fatalf("classic RS produced %d runs on the sawtooth, want ≥ %d", len(rsRes.Runs), minRuns)
	}
	verify(t, rsFS, rsRes.Runs, recs)

	for _, kind := range []Kind{TwoWayRS, Alternating, Auto} {
		res, fs := generate(t, kind, recs, m)
		if maxRuns := n / (2 * m); len(res.Runs) > maxRuns {
			t.Fatalf("%v produced %d runs on the sawtooth, want ≤ %d (~2M run length)", kind, len(res.Runs), maxRuns)
		}
		verify(t, fs, res.Runs, recs)
	}
}

// TestAutoSwitchesAtRunBoundaryOnRegimeChange feeds an ascending half
// followed by a descending half: the probe commits to classic RS, the
// rolling window detects the reversal, and the engine must switch
// generators at a run boundary — reported by Adaptive.Kind — without
// losing a record.
func TestAutoSwitchesAtRunBoundaryOnRegimeChange(t *testing.T) {
	const n, m = 60000, 1000
	recs := make([]record.Record, n)
	for i := 0; i < n/2; i++ {
		recs[i] = record.Record{Key: int64(i), Aux: uint64(i)}
	}
	for i := n / 2; i < n; i++ {
		recs[i] = record.Record{Key: int64(2*n - i), Aux: uint64(i)}
	}
	res, fs := generate(t, Auto, recs, m)
	verify(t, fs, res.Runs, recs)

	if res.Switches < 1 {
		t.Fatalf("auto made %d switches on a regime-changing stream, want ≥ 1", res.Switches)
	}
	if res.Policies[0] != RS {
		t.Fatalf("probe chose %v for the ascending prefix, want rs", res.Policies[0])
	}
	changed := false
	for i := 1; i < len(res.Policies); i++ {
		if res.Policies[i] != res.Policies[i-1] {
			changed = true
			if res.Policies[i] == RS {
				t.Fatalf("auto switched back to rs at run %d: %v", i, res.Policies)
			}
		}
	}
	if !changed {
		t.Fatalf("policies never changed across runs: %v", res.Policies)
	}
	// The descending half must not fragment into memory-sized runs: the
	// switch has to pay off.
	if maxRuns := n/(2*m) + 2; len(res.Runs) > maxRuns {
		t.Fatalf("auto produced %d runs, want ≤ %d", len(res.Runs), maxRuns)
	}
}

func TestMeasureShapes(t *testing.T) {
	mk := func(kind gen.Kind) Stats {
		recs := gen.Generate(gen.Config{Kind: kind, N: 8192, Seed: 5, Noise: 1000})
		return Measure(recs, record.Less)
	}
	if st := mk(gen.Sorted); st.InvRatio > 0.05 || st.AscFrac < 0.99 {
		t.Fatalf("sorted stats: %+v", st)
	}
	if st := mk(gen.ReverseSorted); st.InvRatio < 0.95 || st.DescFrac < 0.99 {
		t.Fatalf("reverse stats: %+v", st)
	}
	if st := mk(gen.Random); st.InvRatio < 0.3 || st.InvRatio > 0.7 || st.Zigzag < 0.5 || st.Zigzag > 0.8 {
		t.Fatalf("random stats: %+v", st)
	}
	if st := mk(gen.MixedBalanced); st.Zigzag < 0.9 {
		t.Fatalf("mixed stats: %+v", st)
	}
	if st := Measure(sawtooth(8192, 256), record.Less); st.AscFrac < 0.9 || st.InvRatio < 0.3 {
		t.Fatalf("sawtooth stats: %+v", st)
	}
}

func TestChoosePerDistribution(t *testing.T) {
	cases := []struct {
		name string
		st   Stats
		want Kind
	}{
		{"sorted", Stats{N: 8192, AscFrac: 1, InvRatio: 0}, RS},
		{"reverse", Stats{N: 8192, DescFrac: 1, InvRatio: 1}, Alternating},
		{"sawtooth", Stats{N: 8192, AscFrac: 0.95, DescFrac: 0.05, InvRatio: 0.9}, Alternating},
		{"mixed", Stats{N: 8192, AscFrac: 0.5, DescFrac: 0.5, Zigzag: 0.99, InvRatio: 0.5, AvgMono: 2}, TwoWayRS},
		{"random", Stats{N: 8192, AscFrac: 0.5, DescFrac: 0.5, Zigzag: 0.66, InvRatio: 0.5, AvgMono: 2}, TwoWayRS},
		{"sections", Stats{N: 8192, AscFrac: 0.5, DescFrac: 0.5, Zigzag: 0.01, InvRatio: 0.5, AvgMono: 160}, TwoWayRS},
	}
	for _, c := range cases {
		if got, _, _ := choose(c.st); got != c.want {
			t.Fatalf("%s: choose = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestParseAndNames(t *testing.T) {
	for _, k := range Kinds {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = (%v, %v)", k.String(), got, err)
		}
	}
	if k, err := Parse("alt"); err != nil || k != Alternating {
		t.Fatalf("Parse(alt) = (%v, %v)", k, err)
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse accepted an unknown policy")
	}
	if len(Names()) != len(Kinds) {
		t.Fatalf("Names() = %v", Names())
	}
	if None.String() != "none" {
		t.Fatalf("None.String() = %q", None.String())
	}
}
