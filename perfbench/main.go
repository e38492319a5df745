// Command perfbench is the repository's benchmark: it sorts three external
// sort workloads file to file, checks every output, and prints end-to-end
// metrics (untraced runs) or per-layer metrics (a traced run). See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	// child mode
	child  string
	dir    string
	bounds string
	sortID int64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the source tree; work files go under <root>/.bench_build")
	flag.StringVar(&o.child, "child", "", "internal: run one sort (timed or traced) and report it as JSON")
	flag.StringVar(&o.dir, "dir", "", "internal: work directory holding the input")
	flag.StringVar(&o.bounds, "bounds", "", "internal: hex-encoded shard boundary elements, comma-separated")
	flag.Int64Var(&o.sortID, "sort-id", 0, "internal: id carried by the traced sort's spans")
	flag.Parse()

	var err error
	switch o.workload {
	case "records_2wrs", "records_sharded_durable":
		err = dispatch(recordsWorkload(o.workload), o)
	case "strings_quick_flate":
		err = dispatch(stringsWorkload(), o)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func dispatch[T any](w *workload[T], o options) error {
	if o.child == "" {
		return bench(w, o)
	}
	var (
		res sortResult
		err error
	)
	switch o.child {
	case "timed":
		res, err = runTimed(w, o.dir)
	case "traced":
		var bounds []T
		bounds, err = decodeBounds(w, o.bounds)
		if err == nil {
			res, err = runTraced(w, o.dir, bounds, o.sortID)
		}
	default:
		err = fmt.Errorf("unknown child mode %q", o.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func encodeBounds[T any](w *workload[T], bounds []T) string {
	var parts []string
	for _, b := range bounds {
		parts = append(parts, hex.EncodeToString(w.codec.Append(nil, b)))
	}
	return strings.Join(parts, ",")
}

func decodeBounds[T any](w *workload[T], s string) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		enc, err := hex.DecodeString(part)
		if err != nil {
			return nil, err
		}
		v, _, err := w.codec.Decode(enc)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json that fixes which metrics the
// final line carries.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// child runs one sort in a fresh process, so peak RSS, CPU time and
// allocation belong to that sort alone.
func child[T any](w *workload[T], o options, dir, mode string, extra ...string) (sortResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return sortResult{}, err
	}
	args := append([]string{"-workload", w.name, "-child", mode, "-dir", dir}, extra...)
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return sortResult{}, fmt.Errorf("%s sort: %w", mode, err)
	}
	var res sortResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return sortResult{}, fmt.Errorf("%s sort: bad report: %w", mode, err)
	}
	return res, nil
}

// Minimum sorts per run, whatever --seconds says: medians need a few.
const (
	minTimed       = 3
	minTimedTraced = 2
	minTraced      = 1
)

func bench[T any](w *workload[T], o options) error {
	specBytes, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(specBytes, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-s%d-p%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up of the run, outside every timing: generate and write the input
	// and digest it for the verifier.
	input := filepath.Join(dir, "input")
	inBytes, err := w.writeInput(input, o.seed)
	if err != nil {
		return err
	}
	ref, _, err := scanFile(input, w.codec, w.less, nil)
	if err != nil {
		return err
	}
	env := describeEnv(o.root, dir)
	env.Seed, env.InputRecords, env.InputBytes = o.seed, w.records, inBytes
	env.MemoryRecords, env.Shards, env.RunSeconds, env.Workload = w.memory, w.shards, o.seconds, w.name
	envJSON, _ := json.Marshal(env)
	fmt.Printf("# environment %s\n", envJSON)

	v := verifier[T]{w: w, ref: ref, output: filepath.Join(dir, "output")}
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	timedUntil, minT := deadline, minTimed
	if o.trace == 1 {
		timedUntil, minT = start.Add(time.Duration(o.seconds)*time.Second/2), minTimedTraced
	}
	var timed, traced []sortResult
	attempted := 0
	// A sort whose child process fails counts as a failed attempt; the loop
	// bounds attempts, not successes, so a failing build cannot spin.
	for ; attempted < minT || time.Now().Before(timedUntil); attempted++ {
		res, err := child(w, o, dir, "timed")
		if err != nil {
			v.failAttempt(err)
			continue
		}
		v.check(&res, len(timed) == 0)
		fmt.Printf("# timed sort %d: %.3f s wall, %.3f s CPU, first output %.3f s, %d runs, %d merge passes\n",
			len(timed)+1, res.WallS, res.CPUS, res.FirstOutputS, res.Runs, res.MergePasses)
		timed = append(timed, res)
	}
	if len(timed) == 0 {
		return fmt.Errorf("no timed sort completed: %s", strings.Join(v.failures, "; "))
	}
	if o.trace == 1 {
		bounds := encodeBounds(w, v.bounds)
		for i := 0; i < minTraced || time.Now().Before(deadline); i++ {
			attempted++
			res, err := child(w, o, dir, "traced", "-bounds", bounds, "-sort-id", fmt.Sprint(o.seed*1000+int64(i)+1))
			if err != nil {
				v.failAttempt(err)
				continue
			}
			v.check(&res, false)
			fmt.Printf("# traced sort %d: %.3f s wall\n", len(traced)+1, res.WallS)
			traced = append(traced, res)
		}
		if len(traced) == 0 {
			return fmt.Errorf("no traced sort completed: %s", strings.Join(v.failures, "; "))
		}
	}
	for _, msg := range v.failures {
		fmt.Printf("# FAILED: %s\n", msg)
	}
	fmt.Printf("# error_rate %.4f (%d of %d sorts failed or unverified)\n",
		float64(v.failed)/float64(attempted), v.failed, attempted)

	var want []struct{ Name, Unit string }
	var got []metric
	if o.trace == 1 {
		want, got = spec.PerLayer, traceMetrics(timed, traced)
	} else {
		want, got = spec.EndToEnd, endToEnd(w, timed, inBytes)
	}
	for _, m := range got {
		if m.NA != "" {
			fmt.Printf("# %-34s n/a: %s\n", m.Name, m.NA)
		} else {
			fmt.Printf("# %-34s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	final := map[string]map[string]any{}
	for _, wm := range want {
		m, ok := find(got, wm.Name)
		switch {
		case !ok:
			return fmt.Errorf("BENCHMARK.json names metric %q, which this benchmark does not compute", wm.Name)
		case m.Unit != wm.Unit:
			return fmt.Errorf("metric %q has unit %q, BENCHMARK.json says %q", wm.Name, m.Unit, wm.Unit)
		case m.NA != "":
			return fmt.Errorf("BENCHMARK.json lists metric %q, which does not apply to %s: %s", wm.Name, w.name, m.NA)
		}
		final[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   v.failed == 0,
		"attempted": attempted,
		"failed":    v.failed,
		"metrics":   final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if v.failed > 0 {
		return errors.New("some sorts failed verification")
	}
	return nil
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// verifier checks every sort's output against the input and every sort's
// exact counts and output bytes against the first timed sort's.
type verifier[T any] struct {
	w        *workload[T]
	ref      digest
	output   string
	first    sortResult
	firstFNV uint64
	bounds   []T // shard boundaries of the first timed output
	failed   int
	failures []string
}

func (v *verifier[T]) fail(format string, args ...any) {
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

func (v *verifier[T]) failAttempt(err error) {
	v.fail("%v", err)
	v.failed++
}

func (v *verifier[T]) check(res *sortResult, first bool) {
	var capture []int64
	if first {
		var at int64
		for i := 0; i+1 < len(res.ShardRecords); i++ {
			at += res.ShardRecords[i]
			capture = append(capture, at-1)
		}
	}
	before := len(v.failures)
	kind := "timed"
	if res.Traced {
		kind = "traced"
	}
	d, captured, err := scanFile(v.output, v.w.codec, v.w.less, capture)
	if err == nil {
		err = d.check(v.ref)
	}
	if err != nil {
		v.fail("%s sort output: %v", kind, err)
	}
	if first {
		v.first, v.firstFNV, v.bounds = *res, d.fnv, captured
	} else {
		if d.fnv != v.firstFNV {
			v.fail("%s sort output FNV-64a %016x differs from the first sort's %016x", kind, d.fnv, v.firstFNV)
		}
		f := v.first
		if res.Records != f.Records || res.Runs != f.Runs || res.MergePasses != f.MergePasses || res.StoredWritten != f.StoredWritten {
			v.fail("%s sort counts (records %d, runs %d, passes %d, stored bytes written %d) differ from the first sort's (%d, %d, %d, %d)",
				kind, res.Records, res.Runs, res.MergePasses, res.StoredWritten, f.Records, f.Runs, f.MergePasses, f.StoredWritten)
		}
		if !res.Traced && (res.StoredRead != f.StoredRead || res.AvgRunLength != f.AvgRunLength) {
			v.fail("timed sort stored bytes read %d or run length %g differ from the first sort's (%d, %g)",
				res.StoredRead, res.AvgRunLength, f.StoredRead, f.AvgRunLength)
		}
	}
	if len(v.failures) > before {
		v.failed++
	}
	os.Remove(v.output)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(rs []sortResult, f func(sortResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// endToEnd computes the user-visible metrics from the timed sorts: medians
// of the measured ones, and the exact counts (equal across sorts, as the
// verifier checked).
func endToEnd[T any](w *workload[T], timed []sortResult, inBytes int64) []metric {
	var setup []float64
	for _, r := range timed {
		setup = append(setup, r.SetupS...)
	}
	f := timed[0]
	mrec := float64(f.Records) / 1e6
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(setup)},
		{Name: "records_per_s", Unit: "1/s", Value: medianOf(timed, func(r sortResult) float64 { return float64(r.Records) / r.WallS })},
		{Name: "first_output_s", Unit: "s", Value: medianOf(timed, func(r sortResult) float64 { return r.FirstOutputS })},
		{Name: "cpu_s_per_mrec", Unit: "s/Mrecord", Value: medianOf(timed, func(r sortResult) float64 { return r.CPUS / mrec })},
		{Name: "alloc_bytes_per_record", Unit: "bytes/record", Value: medianOf(timed, func(r sortResult) float64 { return float64(r.AllocBytes) / float64(r.Records) })},
		{Name: "peak_rss_bytes", Unit: "bytes", Value: medianOf(timed, func(r sortResult) float64 { return float64(r.PeakRSS) })},
		{Name: "run_length_over_memory", Unit: "ratio", Value: f.AvgRunLength / float64(w.generatorMemory())},
		{Name: "merge_passes", Unit: "count", Value: float64(f.MergePasses)},
		{Name: "spill_write_amp", Unit: "ratio", Value: float64(f.StoredWritten) / float64(inBytes)},
		{Name: "spill_read_amp", Unit: "ratio", Value: float64(f.StoredRead) / float64(inBytes)},
	}
}

// traceMetrics takes each per-layer metric's median over the traced sorts
// and adds the tracing overhead against the untraced sorts of the same run.
func traceMetrics(timed, traced []sortResult) []metric {
	out := append([]metric(nil), traced[0].Layers...)
	for i := range out {
		xs := make([]float64, len(traced))
		for j, r := range traced {
			xs[j] = r.Layers[i].Value
		}
		out[i].Value = median(xs)
	}
	overhead := medianOf(traced, func(r sortResult) float64 { return r.WallS }) /
		medianOf(timed, func(r sortResult) float64 { return r.WallS })
	return append(out, metric{Name: "bench.trace_overhead", Unit: "ratio", Value: overhead})
}
