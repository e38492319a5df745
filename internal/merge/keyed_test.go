package merge

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/stream"
)

// genSource adapts a generic slice to the Source interface.
type genSource[T any] struct {
	*stream.SliceReader[T]
	closed bool
}

func (s *genSource[T]) Close() error {
	s.closed = true
	return nil
}

func genSrcOf[T any](vals []T) *genSource[T] {
	return &genSource[T]{SliceReader: stream.NewSliceReader(vals)}
}

// lessTree, prefixTree and ovcTree open the loser tree with the comparator,
// prefix and offset-value-coding match strategies.
func lessTree[T any](srcs []Source[T], less func(a, b T) bool) (*loserTree[T, lessKeys[T], *lessKeys[T]], error) {
	return newLoserTree(srcs, byLess(less, len(srcs)))
}

func prefixTree[T any](srcs []Source[T], kc codec.KeyCodec[T]) (*loserTree[T, prefixKeys[T], *prefixKeys[T]], error) {
	return newLoserTree(srcs, byPrefix(codec.PrefixFunc(kc), len(srcs)))
}

func ovcTree[T any](srcs []Source[T], kc codec.KeyCodec[T]) (*loserTree[T, ovcKeys[T], *ovcKeys[T]], error) {
	return newLoserTree(srcs, byOVC(kc, len(srcs)))
}

// buildRecordSources produces k sorted record runs with heavy key
// duplication and distinguishable Aux payloads, so sequence equality
// between strategies checks tie placement, not just key order.
func buildRecordSources(seed int64, k int) func() []Source[record.Record] {
	return func() []Source[record.Record] {
		rng := rand.New(rand.NewSource(seed))
		srcs := make([]Source[record.Record], k)
		serial := uint64(0)
		for i := 0; i < k; i++ {
			n := rng.Intn(120)
			recs := make([]record.Record, n)
			for j := range recs {
				serial++
				recs[j] = record.Record{Key: rng.Int63n(64), Aux: serial}
			}
			sort.SliceStable(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
			srcs[i] = genSrcOf(recs)
		}
		return srcs
	}
}

func drainAll[T any](t *testing.T, s Source[T]) []T {
	t.Helper()
	var out []T
	for {
		v, err := s.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
}

// TestPrefixTreeMatchesLoserTree pins the loser tree's prefix strategy
// against its comparator strategy on duplicate-heavy record runs: the
// output sequences must be identical element-for-element (Aux included),
// i.e. the strategies make pointwise-equal winner decisions.
func TestPrefixTreeMatchesLoserTree(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		k := 1 + int(trial%9)
		build := buildRecordSources(trial, k)

		lt, err := lessTree(build(), record.Less)
		if err != nil {
			t.Fatal(err)
		}
		want := drainAll(t, lt)
		lt.Close()

		pt, err := prefixTree[record.Record](build(), codec.KeyRecord16{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, pt)
		pt.Close()

		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d = %+v, want %+v (tie placement differs)",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestOVCTreeMatchesLoserTree pins the offset-value-coding strategy against
// the comparator strategy on variable-length string runs built to stress
// both OVC paths: long shared prefixes (fast-path re-tags) and duplicate
// keys across sources (equal-code ties).
func TestOVCTreeMatchesLoserTree(t *testing.T) {
	words := []string{"", "a", "aa", "aaaaaaaaaaaaaaaab", "aaaaaaaaaaaaaaaac",
		"prefix/shared/deep/x", "prefix/shared/deep/y", "prefix/shared/z",
		"zz", "\x00", "\x00\x01"}
	var totalFast int64
	for trial := int64(0); trial < 20; trial++ {
		k := 1 + int(trial%7)
		build := func() []Source[string] {
			rng := rand.New(rand.NewSource(trial))
			srcs := make([]Source[string], k)
			for i := 0; i < k; i++ {
				n := rng.Intn(100)
				vals := make([]string, n)
				for j := range vals {
					w := words[rng.Intn(len(words))]
					if rng.Intn(2) == 0 {
						w += strings.Repeat("x", rng.Intn(30))
					}
					vals[j] = w
				}
				sort.Strings(vals)
				srcs[i] = genSrcOf(vals)
			}
			return srcs
		}

		less := func(a, b string) bool { return a < b }
		lt, err := lessTree(build(), less)
		if err != nil {
			t.Fatal(err)
		}
		want := drainAll(t, lt)
		lt.Close()

		ot, err := ovcTree[string](build(), codec.KeyString{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, ot)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: element %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
		totalFast += ot.keys.fastPath
		ot.Close()
	}
	// A single-source trial has no matches at all, but across twenty trials
	// of duplicate-heavy shared-prefix runs the fast path must fire.
	if totalFast == 0 {
		t.Fatal("OVC fast path never taken across all trials")
	}
}

// TestOVCTreeLongKeysVsFixedEngine runs the OVC strategy on a keyspace where
// the decisive byte sits far past the 8-byte prefix — the regime the
// fixed-width prefix strategy cannot handle and OVC exists for.
func TestOVCTreeLongKeysVsFixedEngine(t *testing.T) {
	const shared = "this-shared-prefix-is-much-longer-than-eight-bytes/"
	build := func() []Source[string] {
		rng := rand.New(rand.NewSource(99))
		srcs := make([]Source[string], 6)
		for i := range srcs {
			vals := make([]string, 200)
			for j := range vals {
				vals[j] = shared + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			}
			sort.Strings(vals)
			srcs[i] = genSrcOf(vals)
		}
		return srcs
	}
	less := func(a, b string) bool { return a < b }
	lt, _ := lessTree(build(), less)
	want := drainAll(t, lt)
	lt.Close()

	ot, err := ovcTree[string](build(), codec.KeyString{})
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, ot)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Every key shares a 51-byte prefix; with offset-value coding the vast
	// majority of matches must resolve without touching the key bytes.
	if ot.keys.fastPath < ot.keys.fullCmp {
		t.Fatalf("fast path %d < full compares %d on a shared-prefix keyspace",
			ot.keys.fastPath, ot.keys.fullCmp)
	}
	ot.Close()
}

// TestKeyedEnginesEmptyAndSingle covers the degenerate shapes for both
// keyed strategies: no sources, all-empty sources, and a lone element.
func TestKeyedEnginesEmptyAndSingle(t *testing.T) {
	pt, err := prefixTree[record.Record](nil, codec.KeyRecord16{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Read(); err != io.EOF {
		t.Fatalf("empty prefix tree Read = %v, want io.EOF", err)
	}
	pt.Close()

	pt2, _ := prefixTree([]Source[record.Record]{
		genSrcOf([]record.Record(nil)),
		genSrcOf([]record.Record{{Key: 5, Aux: 1}}),
		genSrcOf([]record.Record(nil)),
	}, codec.KeyRecord16{})
	got := drainAll[record.Record](t, pt2)
	if len(got) != 1 || got[0].Key != 5 {
		t.Fatalf("got %v, want the single record", got)
	}
	pt2.Close()

	ot, err := ovcTree[string](nil, codec.KeyString{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ot.ReadBatch(make([]string, 4)); n != 0 || err != io.EOF {
		t.Fatalf("empty OVC tree ReadBatch = %d, %v, want io.EOF", n, err)
	}
	ot.Close()
}

// TestPrefixTreeSentinelKeys pins the prefix strategy where its exhaustion
// sentinel ^0 collides with a live key: record.Record keys equal to
// math.MaxInt64 normalize to exactly ^0, so only the done flags tell them
// from exhausted sources. Empty and early-exhausted sources are mixed in,
// and the output must equal the comparator tree's element for element
// (Aux tells ties apart).
func TestPrefixTreeSentinelKeys(t *testing.T) {
	pool := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(trial))
		k := 1 + rng.Intn(8)
		data := make([][]record.Record, k)
		serial := uint64(0)
		for i := range data {
			n := rng.Intn(12) // includes empty sources
			if i == 0 {
				n = 3 + rng.Intn(5)
			}
			recs := make([]record.Record, n)
			for j := range recs {
				serial++
				key := int64(math.MaxInt64)
				if i != 0 || j == 0 {
					key = pool[rng.Intn(len(pool))]
				}
				recs[j] = record.Record{Key: key, Aux: serial}
			}
			sort.SliceStable(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
			data[i] = recs
		}
		lt, _ := lessTree(sliceSources(data), record.Less)
		want := drainAll[record.Record](t, lt)
		pt, err := prefixTree(sliceSources(data), codec.KeyRecord16{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll[record.Record](t, pt)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: prefix tree\n got  %v\n want %v", trial, got, want)
		}
	}
}

// taggedStr is a string key with a payload outside the key, so tie
// placement is visible in the output.
type taggedStr struct {
	key string
	tag int
}

type taggedStrKeys struct{}

func (taggedStrKeys) AppendKey(buf []byte, v taggedStr) []byte { return append(buf, v.key...) }
func (taggedStrKeys) FixedKeySize() int                        { return 0 }
func (taggedStrKeys) TotalKey() bool                           { return false }

// TestOVCTreeEdgeKeys pins the offset-value-coding strategy on the keys
// its code space treats specially: the empty key, keys made of 0x00 and
// 0xff bytes, a key against its own 0x00 extension, and keys that share a
// prefix of several kilobytes. The output must equal the comparator
// tree's element for element.
func TestOVCTreeEdgeKeys(t *testing.T) {
	long := strings.Repeat("p", 5000)
	words := []string{"", "\x00", "\x00\xff", "\xff", "a", "a\x00",
		long, long + "\x00", long + "a", long + "a\x00", long + "\xff", long + long}
	less := func(a, b taggedStr) bool { return a.key < b.key }
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(trial))
		k := 1 + rng.Intn(7)
		data := make([][]taggedStr, k)
		tag := 0
		for i := range data {
			vals := make([]taggedStr, rng.Intn(25))
			for j := range vals {
				tag++
				vals[j] = taggedStr{key: words[rng.Intn(len(words))], tag: tag}
			}
			sort.SliceStable(vals, func(a, b int) bool { return less(vals[a], vals[b]) })
			data[i] = vals
		}
		lt, _ := lessTree(sliceSources(data), less)
		want := drainAll(t, lt)
		ot, err := ovcTree(sliceSources(data), taggedStrKeys{})
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, ot)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: OVC tree output differs from the comparator tree's", trial)
		}
	}
}

// failingSource delivers vals and then fails with err on every read.
type failingSource[T any] struct {
	vals []T
	err  error
}

func (f *failingSource[T]) Read() (T, error) {
	if len(f.vals) == 0 {
		var zero T
		return zero, f.err
	}
	v := f.vals[0]
	f.vals = f.vals[1:]
	return v, nil
}

func (f *failingSource[T]) Close() error { return nil }

// TestMergersSourceErrorMidStream fails one source after more than a leaf
// buffer's worth of elements and checks every merger, through Read and
// ReadBatch: the error surfaces (never as io.EOF, also on the read after
// it), and what was delivered before it is exactly the merged order up to
// and including the failing source's last element.
func TestMergersSourceErrorMidStream(t *testing.T) {
	injected := errors.New("injected source failure")
	// The failing source draws its 300 keys from the lower half of the
	// range, so it fails mid-stream rather than near the end.
	keys := rand.New(rand.NewSource(5)).Perm(600)
	for k := 600; k < 1300; k++ {
		keys = append(keys, k)
	}
	runOf := func(ks []int) []record.Record {
		recs := make([]record.Record, len(ks))
		for i, k := range ks {
			recs[i] = record.Record{Key: int64(k), Aux: uint64(k)}
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Key < recs[b].Key })
		return recs
	}
	bad, good := runOf(keys[:300]), runOf(keys[300:])
	if len(bad) <= leafBatch {
		t.Fatal("the failing source must outlast one leaf buffer")
	}
	// Keys are distinct, so the merged order is the sorted order, and the
	// mergers can deliver everything up to the failing source's last
	// element before they need its next one.
	want := runOf(keys)
	wantN := sort.Search(len(want), func(i int) bool { return want[i].Key > bad[len(bad)-1].Key })

	type opener func([]Source[record.Record]) (Source[record.Record], error)
	mergers := []struct {
		name string
		open opener
	}{
		{"comparator", func(s []Source[record.Record]) (Source[record.Record], error) { return lessTree(s, record.Less) }},
		{"prefix", func(s []Source[record.Record]) (Source[record.Record], error) {
			return prefixTree(s, codec.KeyRecord16{})
		}},
		{"ovc", func(s []Source[record.Record]) (Source[record.Record], error) { return ovcTree(s, codec.KeyRecord16{}) }},
		{"heap", func(s []Source[record.Record]) (Source[record.Record], error) { return NewHeapMerger(s, record.Less) }},
	}
	for _, m := range mergers {
		for _, batch := range []bool{false, true} {
			srcs := []Source[record.Record]{genSrcOf(good), &failingSource[record.Record]{vals: bad, err: injected}}
			mg, err := m.open(srcs)
			if err != nil {
				t.Fatal(err)
			}
			var got []record.Record
			read := func() error {
				if !batch {
					v, err := mg.Read()
					if err == nil {
						got = append(got, v)
					}
					return err
				}
				buf := make([]record.Record, 100)
				n, err := mg.(stream.BatchReader[record.Record]).ReadBatch(buf)
				if n > 0 && err != nil {
					t.Fatalf("%s: ReadBatch returned %d elements with error %v", m.name, n, err)
				}
				got = append(got, buf[:n]...)
				return err
			}
			for err = read(); err == nil; err = read() {
			}
			if !errors.Is(err, injected) {
				t.Fatalf("%s batch=%v: err = %v, want the injected error", m.name, batch, err)
			}
			if err := read(); !errors.Is(err, injected) {
				t.Fatalf("%s batch=%v: read after the error = %v, want the injected error", m.name, batch, err)
			}
			if len(got) != wantN || !slices.Equal(got, want[:len(got)]) {
				t.Fatalf("%s batch=%v: delivered %d elements, want the first %d of the merged order",
					m.name, batch, len(got), wantN)
			}
			mg.Close()
		}
	}
}

// sliceSources wraps fresh slice sources around data, one per slice.
func sliceSources[T any](data [][]T) []Source[T] {
	srcs := make([]Source[T], len(data))
	for i, d := range data {
		srcs[i] = genSrcOf(d)
	}
	return srcs
}

// BenchmarkKeyedVsComparatorMerge is the CI microbenchmark guard: the same
// merge through the loser tree with the comparator, prefix and OVC
// strategies. The runs are generated once; each iteration merges fresh
// slice sources over them, so the timing is the merge alone. Each keyed
// iteration also asserts element-for-element equality with the comparator
// output, so a single -benchtime 1x -short run doubles as a correctness
// gate.
func BenchmarkKeyedVsComparatorMerge(b *testing.B) {
	const k, n = 10, 2000
	rng := rand.New(rand.NewSource(3))
	data := make([][]record.Record, k)
	serial := uint64(0)
	for i := range data {
		recs := make([]record.Record, n)
		for j := range recs {
			serial++
			recs[j] = record.Record{Key: rng.Int63n(1 << 30), Aux: serial}
		}
		sort.SliceStable(recs, func(a, bb int) bool { return recs[a].Key < recs[bb].Key })
		data[i] = recs
	}
	out := make([]record.Record, 0, k*n)
	buf := make([]record.Record, 512)
	drainB := func(b *testing.B, s Source[record.Record], want []record.Record) []record.Record {
		out = out[:0]
		br := stream.AsBatchReader[record.Record](s)
		for {
			m, err := br.ReadBatch(buf)
			out = append(out, buf[:m]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if want != nil && !slices.Equal(out, want) {
			b.Fatal("keyed merge diverged from the comparator merge")
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		return out
	}

	lt, err := lessTree(sliceSources(data), record.Less)
	if err != nil {
		b.Fatal(err)
	}
	want := slices.Clone(drainB(b, lt, nil))

	b.Run("comparator", func(b *testing.B) {
		b.SetBytes(int64(k * n * record.Size))
		for i := 0; i < b.N; i++ {
			lt, _ := lessTree(sliceSources(data), record.Less)
			drainB(b, lt, want)
		}
	})
	b.Run("prefix", func(b *testing.B) {
		b.SetBytes(int64(k * n * record.Size))
		for i := 0; i < b.N; i++ {
			pt, _ := prefixTree(sliceSources(data), codec.KeyRecord16{})
			drainB(b, pt, want)
		}
	})
	b.Run("ovc", func(b *testing.B) {
		b.SetBytes(int64(k * n * record.Size))
		for i := 0; i < b.N; i++ {
			ot, _ := ovcTree(sliceSources(data), codec.KeyRecord16{})
			drainB(b, ot, want)
		}
	})
}
