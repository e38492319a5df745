package main

import (
	"math"
	"strings"
	"time"

	"repro/internal/extsort"
)

// layerInputs is everything a traced sort collected besides its Stats.
type layerInputs struct {
	rec                    *recorder
	fs                     *tracedFS
	src                    interface{ counts() (calls, n int64) }
	dst                    interface{ counts() (calls, n int64) }
	lanes                  []int64 // per shard: when its first run file was opened for reading
	genCmp, mergeCmp       int64
	encodes, decodes, keys int64
	wall, cpu              time.Duration
	gcCycles               int64
	gcCPU                  float64
}

func (s *tracedSource[T]) counts() (int64, int64) { return s.calls, s.n }
func (s *tracedSink[T]) counts() (int64, int64)   { return s.calls, s.n }

func (l *lanes[T]) firstOpens() []int64 {
	out := make([]int64, len(l.firstOpn))
	for i := range l.firstOpn {
		out[i] = l.firstOpn[i].Load()
	}
	return out
}

// laneNearest returns the shard whose first run-file open lies closest to
// t. The program's generate and merge spans carry no shard id, but each
// shard's generation ends, and its merge starts, where it first opens a
// run for reading.
func laneNearest(opens []int64, t int64) int {
	best, bestD := 0, int64(math.MaxInt64)
	for i, o := range opens {
		d := o - t
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// selfTime sums, over the given program spans, each span's duration minus
// the part of it covered by the wrapper spans of the same shard: spill file
// I/O and, for an unsharded sort, the source and sink calls.
func selfTime(spans []span, opens []int64, atEnd bool, children []span) (total, self int64) {
	for _, p := range spans {
		t := p.start
		if atEnd {
			t = p.end
		}
		lane := laneNearest(opens, t)
		var mine []span
		for _, c := range children {
			if c.lane == lane {
				mine = append(mine, c)
			}
		}
		total += p.dur()
		self += p.dur() - covered(p.start, p.end, mine)
	}
	return total, self
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Reasons a per-layer metric does not apply to a workload.
const (
	naKeyed    = "the sort ran keyed: comparisons go through normalized keys, not the comparator"
	naNotKeyed = "the sort ran comparator-only (WithoutKeys): no key is derived"
	naNot2WRS  = "only 2WRS runs have streams that overlap; this workload's policy is quick"
	naRaw      = "raw spill has no block framing, so nothing is verified on read"
	naUnshard  = "the workload is not sharded"
	naNoMan    = "the workload writes no manifest"
)

// layerMetrics computes every per-layer metric of one traced sort.
// bench.trace_overhead needs the untraced runs and is filled in later.
func layerMetrics[T any](w *workload[T], st extsort.Stats, in layerInputs) []metric {
	rec := in.rec
	recs := st.Records
	var children []span
	var writes, reads, manWrites []span
	var carryBytes int64
	for _, s := range rec.spans {
		switch s.layer {
		case "vfs.write":
			writes = append(writes, s)
			children = append(children, s)
			if strings.HasSuffix(s.file, ".manifest") {
				manWrites = append(manWrites, s)
			}
			if strings.HasSuffix(s.file, "-carry") {
				carryBytes += s.n
			}
		case "vfs.read":
			reads = append(reads, s)
			children = append(children, s)
		case "stream.input", "stream.output":
			children = append(children, s)
		}
	}
	sum := func(ss []span) (busy, n int64) {
		for _, s := range ss {
			busy += s.dur()
			n += s.n
		}
		return busy, n
	}
	genWall, genSelf := selfTime(rec.byLayer("program.generate"), in.lanes, true, children)
	mergeWall, mergeSelf := selfTime(rec.byLayer("program.merge"), in.lanes, false, children)
	wBusy, wBytes := sum(writes)
	rBusy, rBytes := sum(reads)
	mBusy, mBytes := sum(manWrites)
	srcCalls, srcN := in.src.counts()
	dstCalls, dstN := in.dst.counts()
	var srcBusy, dstBusy int64
	for _, s := range rec.byLayer("stream.input") {
		srcBusy += s.dur()
	}
	for _, s := range rec.byLayer("stream.output") {
		dstBusy += s.dur()
	}

	var out []metric
	add := func(name, unit string, v float64, na string) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, NA: na})
	}
	keyedNA, notKeyedNA := "", ""
	if st.Keyed {
		keyedNA = naKeyed
	} else {
		notKeyedNA = naNotKeyed
	}
	twrsNA := ""
	if st.Policy != "2wrs" {
		twrsNA = naNot2WRS
	}
	rawNA := ""
	if w.compression == "" {
		rawNA = naRaw
	}
	shardNA, manNA := "", ""
	if w.shards <= 1 {
		shardNA = naUnshard
	}
	if !w.manifest {
		manNA = naNoMan
	}

	add("policy.generate_s", "s", secs(genWall), "")
	add("policy.generate_self_s", "s", secs(genSelf), "")
	add("policy.runs", "count", float64(st.Runs), "")
	add("core.overlap_runs", "count", float64(st.OverlapRuns), twrsNA)
	add("heap.cmp_per_record", "1/record", ratio(in.genCmp, recs), keyedNA)

	add("codec.encodes_per_record", "1/record", ratio(in.encodes, recs), "")
	add("codec.decodes_per_record", "1/record", ratio(in.decodes, recs), "")
	add("codec.keys_per_record", "1/record", ratio(in.keys, recs), notKeyedNA)

	add("storage.stored_bytes_written", "bytes", float64(st.IO.StoredBytesWritten), "")
	add("storage.compression_ratio", "ratio", st.IO.CompressionRatio(), "")
	add("storage.blocks_written", "count", float64(st.IO.BlocksWritten), "")
	add("storage.blocks_read", "count", float64(st.IO.BlocksRead), "")
	add("storage.verify_failures", "count", float64(st.IO.VerifyFailures), rawNA)

	add("vfs.write_busy_s", "s", secs(wBusy), "")
	add("vfs.write_ops", "count", float64(len(writes)), "")
	add("vfs.mean_write_bytes", "bytes", ratio(wBytes, int64(len(writes))), "")
	add("vfs.read_busy_s", "s", secs(rBusy), "")
	add("vfs.read_ops", "count", float64(len(reads)), "")
	add("vfs.mean_read_bytes", "bytes", ratio(rBytes, int64(len(reads))), "")
	in.fs.mu.Lock()
	add("vfs.files_created", "count", float64(in.fs.created), "")
	add("vfs.peak_live_bytes", "bytes", float64(in.fs.peakLive), "")
	in.fs.mu.Unlock()

	add("merge.wall_s", "s", secs(mergeWall), "")
	add("merge.self_s", "s", secs(mergeSelf), "")
	add("merge.ops", "count", float64(st.MergeOps), "")
	add("merge.inputs", "count", float64(st.MergeInputs), "")
	add("merge.cmp_per_record", "1/record", ratio(in.mergeCmp, recs), keyedNA)

	var partS, drainS, imbalance, spread float64
	if shardNA == "" {
		for _, p := range st.Phases {
			switch p.Name {
			case "partition":
				partS = p.Wall.Seconds()
			case "merge":
				drainS = p.Wall.Seconds()
			}
		}
		var maxRecs int64
		for _, c := range st.ShardRecords {
			maxRecs = max(maxRecs, c)
		}
		imbalance = float64(maxRecs) * float64(len(st.ShardRecords)) / float64(recs)
		var lo, hi, tot int64 = math.MaxInt64, 0, 0
		// distsort names each shard's span after its track, "shard NN".
		var shardSpans []span
		for _, s := range rec.spans {
			if strings.HasPrefix(s.layer, "program.shard ") {
				shardSpans = append(shardSpans, s)
			}
		}
		for _, s := range shardSpans {
			lo, hi, tot = min(lo, s.dur()), max(hi, s.dur()), tot+s.dur()
		}
		if len(shardSpans) > 0 {
			spread = float64(hi-lo) * float64(len(shardSpans)) / float64(tot)
		}
	}
	add("distsort.partition_s", "s", partS, shardNA)
	add("distsort.drain_s", "s", drainS, shardNA)
	add("distsort.shard_imbalance", "ratio", imbalance, shardNA)
	add("distsort.shard_wall_spread", "ratio", spread, shardNA)

	add("manifest.write_ops", "count", float64(len(manWrites)), manNA)
	add("manifest.bytes_written", "bytes", float64(mBytes), manNA)
	add("manifest.carry_bytes_written", "bytes", float64(carryBytes), manNA)
	add("manifest.write_busy_s", "s", secs(mBusy), manNA)

	add("stream.input_busy_s", "s", secs(srcBusy), "")
	add("stream.input_records_per_call", "1/call", ratio(srcN, srcCalls), "")
	add("stream.output_busy_s", "s", secs(dstBusy), "")
	add("stream.output_records_per_call", "1/call", ratio(dstN, dstCalls), "")

	add("runtime.cpu_util", "ratio", in.cpu.Seconds()/in.wall.Seconds(), "")
	add("runtime.gc_cycles", "count", float64(in.gcCycles), "")
	add("runtime.gc_cpu_s", "s", in.gcCPU, "")
	return out
}
