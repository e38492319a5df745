package extsort

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/vfs"
)

// TestPolicyMatchesAlgorithm pins each legacy Algorithm to the policy it
// aliases: same runs, same records, same sorted output, same name.
func TestPolicyMatchesAlgorithm(t *testing.T) {
	const n, m = 30000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 21, Noise: 1000})
	pairs := []struct {
		alg Algorithm
		pol policy.Kind
	}{
		{TwoWayRS, policy.TwoWayRS},
		{RS, policy.RS},
		{LoadSortStore, policy.LSS},
	}
	for _, p := range pairs {
		legacy, lst, err := SortSlice(recs, Config{Algorithm: p.alg, Memory: m}, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		pol, pst, err := SortSlice(recs, Config{Policy: p.pol, Memory: m}, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		if lst.Runs != pst.Runs || lst.Records != pst.Records {
			t.Fatalf("%v: legacy %d runs/%d records, policy %d/%d", p.alg, lst.Runs, lst.Records, pst.Runs, pst.Records)
		}
		if len(legacy) != len(pol) {
			t.Fatalf("%v: output lengths differ", p.alg)
		}
		for i := range legacy {
			if legacy[i] != pol[i] {
				t.Fatalf("%v: outputs diverge at %d: %v vs %v", p.alg, i, legacy[i], pol[i])
			}
		}
		if pst.Policy != p.pol.String() {
			t.Fatalf("policy sort reported Policy=%q, want %q", pst.Policy, p.pol)
		}
		if lst.Policy != p.alg.String() {
			t.Fatalf("legacy sort reported Policy=%q, want %q", lst.Policy, p.alg)
		}
	}
}

// TestGenerationFingerprintGolden pins the manifest's Generation header for
// the legacy Algorithm values and the policies they alias to strings
// written by earlier releases, so a manifest left by an older build still
// passes checkHeader and resumes.
func TestGenerationFingerprintGolden(t *testing.T) {
	const twrs = "page=4096 pages_per_file=4 twrs={Memory:64 Setup:both BufferFrac:0.02 Input:mean Output:random Seed:0}"
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Algorithm: TwoWayRS}, "policy=2wrs memory=64 elem=16 " + twrs},
		{Config{Algorithm: RS}, "policy=rs memory=64 elem=16 " + twrs},
		{Config{Algorithm: LoadSortStore}, "policy=lss memory=64 elem=16 " + twrs},
		{Config{Policy: policy.TwoWayRS}, "policy=2wrs memory=64 elem=16 " + twrs},
		{Config{Policy: policy.RS}, "policy=rs memory=64 elem=16 " + twrs},
		{Config{Policy: policy.LSS}, "policy=lss memory=64 elem=16 " + twrs},
		{Config{Policy: policy.Alternating}, "policy=alternating memory=64 elem=16 " + twrs},
		{Config{Policy: policy.Quick}, "policy=quick memory=64 elem=16 " + twrs},
	} {
		c.cfg.Memory, c.cfg.Manifest = 64, true
		cfg, err := prepare(c.cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		rset, err := newRunSet(vfs.NewMemFS(), cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		if got := generationFingerprint(cfg, RecordOps(), rset.em); got != c.want {
			t.Errorf("%+v: fingerprint\n got %q\nwant %q", c.cfg, got, c.want)
		}
	}
}

// TestRunSetRecordsPolicies checks that every run in a RunSet is attributed
// to the generator that produced it, for fixed and legacy selections alike.
func TestRunSetRecordsPolicies(t *testing.T) {
	const n, m = 20000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 22, Noise: 1000})
	for _, cfg := range []Config{
		{Policy: policy.Alternating, Memory: m},
		{Policy: policy.Quick, Memory: m},
		{Algorithm: LoadSortStore, Memory: m},
	} {
		rset, err := GenerateRuns(record.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		pols := rset.RunPolicies()
		if len(pols) != len(rset.Runs()) {
			t.Fatalf("%d runs but %d policy entries", len(rset.Runs()), len(pols))
		}
		want := cfg.Policy.String()
		if cfg.Policy == policy.None {
			want = cfg.Algorithm.String()
		}
		for i, p := range pols {
			if p != want {
				t.Fatalf("run %d attributed to %q, want %q", i, p, want)
			}
		}
		if err := rset.Discard(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAutoPolicyEndToEnd drives the adaptive policy through the full
// driver: sorted output, per-run attribution, and the policy name in
// Stats.
func TestAutoPolicyEndToEnd(t *testing.T) {
	const n, m = 30000, 500
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: n, Seed: 23, Noise: 1000})
	out, stats, err := SortSlice(recs, Config{Policy: policy.Auto, Memory: m}, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out) || len(out) != n {
		t.Fatalf("auto policy output unsorted or truncated (%d records)", len(out))
	}
	if stats.Policy != "auto" {
		t.Fatalf("Stats.Policy = %q, want auto", stats.Policy)
	}
}
