package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
)

// writeRecords writes recs to a file in the record codec's encoding.
func writeRecords(t *testing.T, path string, recs []repro.Record) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := newFileSink(f, repro.RecordCodec())
	if err := sink.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifierCatchesDamage checks that the output verifier accepts a sorted
// permutation of the input and rejects a dropped record and a swapped
// adjacent pair.
func TestVerifierCatchesDamage(t *testing.T) {
	w := recordsWorkload("records_2wrs")
	dir := t.TempDir()
	const n = 5000
	var input []repro.Record
	if err := w.generate(7, n, func(r repro.Record) error { input = append(input, r); return nil }); err != nil {
		t.Fatal(err)
	}
	sorted := append([]repro.Record(nil), input...)
	sort.Slice(sorted, func(i, j int) bool { return w.less(sorted[i], sorted[j]) })

	digestOf := func(name string, recs []repro.Record) digest {
		t.Helper()
		path := filepath.Join(dir, name)
		writeRecords(t, path, recs)
		d, _, err := scanFile(path, w.codec, w.less, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := digestOf("input", input)
	if err := digestOf("sorted", sorted).check(ref); err != nil {
		t.Fatalf("a correct output was rejected: %v", err)
	}

	dropped := append(append([]repro.Record(nil), sorted[:n/2]...), sorted[n/2+1:]...)
	if err := digestOf("dropped", dropped).check(ref); err == nil || !strings.Contains(err.Error(), "elements") {
		t.Fatalf("dropped record: got %v, want an element-count failure", err)
	}

	swapped := append([]repro.Record(nil), sorted...)
	i := n / 3
	for swapped[i].Key == swapped[i+1].Key {
		i++
	}
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	d := digestOf("swapped", swapped)
	if err := d.check(ref); err == nil || !strings.Contains(err.Error(), "smaller than its predecessor") {
		t.Fatalf("swapped pair: got %v, want an order failure", err)
	}
	if d.multiset != ref.multiset {
		t.Fatalf("a swap must keep the multiset checksum; it changed")
	}
}
