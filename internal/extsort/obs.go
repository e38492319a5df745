package extsort

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// PhaseStat is one named phase of a sort's elapsed time.
type PhaseStat struct {
	// Name is the phase name: "read", "generate", "merge", "select", ...
	Name string
	// Wall is the phase's wall-clock duration.
	Wall time.Duration
}

// sortObs bundles one sort's observability state: the tracer, the
// progress reporter and every registry collector resolved once up front so
// the phases never touch the registry. A nil *sortObs disables everything;
// all methods are nil-safe.
type sortObs struct {
	tr  *obs.Tracer
	rep *obs.Reporter

	recordsIn *obs.Counter
	runs      *obs.Counter
	runLen    *obs.Histogram
	recovered *obs.Counter
	switches  *obs.Counter
	phaseGen  *obs.Histogram
	phaseMrg  *obs.Histogram

	ioMu   sync.Mutex
	ioLast storage.IOStats
	io     ioMetrics
}

// ioMetrics mirrors storage.IOStats onto registry collectors.
type ioMetrics struct {
	blocksW, blocksR    *obs.Counter
	rawW, storedW       *obs.Counter
	rawR, storedR       *obs.Counter
	verify, overflows   *obs.Counter
	memFiles, diskFiles *obs.Gauge
	memBytes, diskBytes *obs.Gauge
}

// newSortObs builds the bundle for one sort, or returns nil when the
// config enables no observability at all.
func newSortObs(cfg Config) *sortObs {
	if cfg.Trace == nil && cfg.Metrics == nil && cfg.Progress == nil {
		return nil
	}
	o := &sortObs{tr: cfg.Trace}
	o.rep = cfg.Progress.Start(cfg.Prefix)
	m := cfg.Metrics
	o.recordsIn = m.Counter(obs.MRecordsIn, "Records read from the sort input.")
	o.runs = m.Counter(obs.MRuns, "Sorted runs emitted by generation.")
	o.runLen = m.Histogram(obs.MRunLength, "Run length distribution in records.", obs.RunLengthBuckets)
	o.recovered = m.Counter(obs.MRunsRecovered, "Runs recovered from a durable manifest by a resumed sort.")
	o.switches = m.Counter(obs.MPolicySwitches, "Mid-stream generator switches by the auto policy.")
	o.phaseGen = m.Histogram(obs.MPhaseSeconds, "Per-phase wall seconds.", obs.PhaseSecondsBuckets,
		obs.Label{Name: "phase", Value: "generate"})
	o.phaseMrg = m.Histogram(obs.MPhaseSeconds, "Per-phase wall seconds.", obs.PhaseSecondsBuckets,
		obs.Label{Name: "phase", Value: "merge"})
	o.io = ioMetrics{
		blocksW:   m.Counter(obs.MSpillBlocksWritten, "Spill blocks written."),
		blocksR:   m.Counter(obs.MSpillBlocksRead, "Spill blocks read."),
		rawW:      m.Counter(obs.MSpillRawBytes, "Pre-compression bytes written to spill storage."),
		storedW:   m.Counter(obs.MSpillStoredBytes, "On-storage bytes written to spill storage."),
		rawR:      m.Counter(obs.MReadRawBytes, "Post-decompression bytes read back from spill storage."),
		storedR:   m.Counter(obs.MReadStoredBytes, "On-storage bytes read back from spill storage."),
		verify:    m.Counter(obs.MSpillVerifyFailures, "Checksum verification failures on spill reads."),
		overflows: m.Counter(obs.MSpillOverflows, "Memory-tier overflows migrated to disk."),
		memFiles:  m.Gauge(obs.MSpillMemFiles, "Spill files currently in the memory tier."),
		diskFiles: m.Gauge(obs.MSpillDiskFiles, "Spill files currently on disk."),
		memBytes:  m.Gauge(obs.MSpillMemBytes, "Bytes currently in the memory tier."),
		diskBytes: m.Gauge(obs.MSpillDiskBytes, "Bytes currently on disk."),
	}
	return o
}

// tracer returns the bundle's tracer (nil when disabled).
func (o *sortObs) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// reporter returns the bundle's progress reporter (nil when disabled).
func (o *sortObs) reporter() *obs.Reporter {
	if o == nil {
		return nil
	}
	return o.rep
}

// finishGenerate records the switch counter, the generation phase time
// and an I/O sync after the run-generation loop completes.
func (o *sortObs) finishGenerate(st Stats, io storage.IOStats) {
	if o == nil {
		return
	}
	o.switches.Add(int64(st.PolicySwitches))
	o.phaseGen.Observe(st.RunGenWall.Seconds())
	o.syncIO(io)
}

// observeRun records one emitted run.
func (o *sortObs) observeRun(records int64) {
	if o == nil {
		return
	}
	o.runs.Add(1)
	o.runLen.Observe(float64(records))
}

// observeRecovered records runs a resumed sort recovered from a manifest
// instead of regenerating.
func (o *sortObs) observeRecovered(n int) {
	if o == nil || n == 0 {
		return
	}
	o.recovered.Add(int64(n))
}

// observeMergePhase records the merge phase's wall time.
func (o *sortObs) observeMergePhase(d time.Duration) {
	if o == nil {
		return
	}
	o.phaseMrg.Observe(d.Seconds())
}

// syncIO folds a fresh backend snapshot into the registry: counters
// advance by the delta since the last sync, gauges track the current
// residency. Synced at generation end, after every merge operation
// completes is unnecessary — once more when the merge stream closes keeps
// the final exposition exactly equal to Stats.IO.
func (o *sortObs) syncIO(st storage.IOStats) {
	if o == nil {
		return
	}
	o.ioMu.Lock()
	last := o.ioLast
	o.ioLast = st
	o.ioMu.Unlock()
	o.io.blocksW.Add(st.BlocksWritten - last.BlocksWritten)
	o.io.blocksR.Add(st.BlocksRead - last.BlocksRead)
	o.io.rawW.Add(st.RawBytesWritten - last.RawBytesWritten)
	o.io.storedW.Add(st.StoredBytesWritten - last.StoredBytesWritten)
	o.io.rawR.Add(st.RawBytesRead - last.RawBytesRead)
	o.io.storedR.Add(st.StoredBytesRead - last.StoredBytesRead)
	o.io.verify.Add(st.VerifyFailures - last.VerifyFailures)
	o.io.overflows.Add(st.Overflows - last.Overflows)
	o.io.memFiles.Set(st.MemFiles)
	o.io.diskFiles.Set(st.DiskFiles)
	o.io.memBytes.Set(st.MemBytes)
	o.io.diskBytes.Set(st.DiskBytes)
}

// inputMeters returns the records-in counter and the progress reporter
// the sort's input feeds (both nil when disabled).
func (o *sortObs) inputMeters() (*obs.Counter, *obs.Reporter) {
	if o == nil {
		return nil, nil
	}
	return o.recordsIn, o.rep
}

// countReader counts every element drained from the sort's input: the one
// count behind Stats.Records and each durable boundary's input position.
// Once its meters are set it also feeds the records-in counter and the
// progress reporter, at batch granularity on the batch path.
type countReader[T any] struct {
	src stream.Reader[T]
	br  stream.BatchReader[T]
	n   int64
	c   *obs.Counter
	rep *obs.Reporter
}

func (c *countReader[T]) Read() (T, error) {
	v, err := c.src.Read()
	if err == nil {
		c.add(1)
	}
	return v, err
}

func (c *countReader[T]) ReadBatch(dst []T) (int, error) {
	n, err := c.br.ReadBatch(dst)
	if n > 0 {
		c.add(int64(n))
	}
	return n, err
}

func (c *countReader[T]) add(n int64) {
	c.n += n
	c.c.Add(n)
	c.rep.Add(n)
}
