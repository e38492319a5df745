package extsort

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// This file implements durable (resumable) run generation: Config.Manifest
// records every run boundary in a CRC-guarded manifest beside the spill
// files, and Resume/OpenRunSet reconstruct a RunSet from that state after a
// crash or across processes (DESIGN.md §14).
//
// The key property durable mode buys is determinism: the generator is
// restarted at every run boundary from an explicit carried-state snapshot,
// so the run sequence is a pure function of (input, configuration). A sort
// resumed at boundary j therefore produces byte-identical runs — and a
// byte-identical merged output — to one that never crashed.

// neverLess is the comparator for carry snapshot files: carried generator
// state is an arbitrary permutation, so order validation is disabled.
func neverLess[T any](a, b T) bool { return false }

// recovered is the state Resume reconstructs from a manifest: the intact
// prefix of runs plus everything needed to restart generation at the
// boundary after them.
type recovered[T any] struct {
	runs     []runio.Run
	policies []string
	manRuns  []manifest.Run // manifest records backing runs, re-seeded on rewrite
	carried  []T            // generator state carried across the resume boundary
	inputPos int64          // input records consumed up to the boundary
	namerSeq int            // spill Namer position at the boundary
}

// skipInput drains exactly n records from src, which re-serves input a
// previous pass already consumed. Running out early means the source is not
// the same input the manifest was written against.
func skipInput[T any](src stream.Reader[T], n int64) error {
	if n <= 0 {
		return nil
	}
	br := stream.AsBatchReader(src)
	buf := make([]T, 1024)
	var done int64
	for done < n {
		want := int64(len(buf))
		if rem := n - done; rem < want {
			want = rem
		}
		k, err := br.ReadBatch(buf[:want])
		done += int64(k)
		if done >= n {
			return nil
		}
		if err == io.EOF || (err == nil && k == 0) {
			return fmt.Errorf("extsort: resume: input ended after %d records but the manifest recorded position %d; the source must re-serve the original input from the start", done, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// compressionName returns the canonical spill framing name for the header.
func compressionName(cfg Config) string {
	comp, err := storage.ParseCompression(cfg.Storage.Compression)
	if err != nil {
		return cfg.Storage.Compression
	}
	return string(comp)
}

// generationFingerprint strings together every knob that shapes the
// deterministic run sequence. Two invocations with equal fingerprints (and
// equal inputs) generate identical runs; anything else must not resume.
func generationFingerprint[T any](cfg Config, ops Ops[T], em *runio.Emitter[T]) string {
	page, pages := em.PageSize, em.PagesPerFile
	if page == 0 {
		page = runio.DefaultPageSize
	}
	if pages == 0 {
		pages = runio.DefaultPagesPerFile
	}
	return fmt.Sprintf("policy=%s memory=%d elem=%d page=%d pages_per_file=%d twrs=%+v",
		cfg.Policy, cfg.Memory, ops.elementBytes(), page, pages, cfg.TWRS)
}

// durableHeader builds the manifest identity record for this invocation.
func durableHeader[T any](cfg Config, ops Ops[T], em *runio.Emitter[T], keyed bool) manifest.Header {
	h := manifest.Header{
		Prefix:      cfg.Prefix,
		Codec:       fmt.Sprintf("%T", ops.Codec),
		Compression: compressionName(cfg),
		Generation:  generationFingerprint(cfg, ops, em),
	}
	if keyed {
		h.KeyCodec = fmt.Sprintf("%T", ops.KeyCodec)
	}
	return h
}

// checkHeader refuses to resume under an incompatible configuration. The
// key codec is deliberately not checked: keyed and comparator sorts emit
// byte-identical runs, so flipping it between passes is safe.
func checkHeader[T any](h manifest.Header, cfg Config, ops Ops[T], em *runio.Emitter[T]) error {
	if got := fmt.Sprintf("%T", ops.Codec); h.Codec != got {
		return &manifest.MismatchError{Field: "codec", Want: h.Codec, Got: got}
	}
	if got := compressionName(cfg); h.Compression != got {
		return &manifest.MismatchError{Field: "compression", Want: h.Compression, Got: got}
	}
	if got := generationFingerprint(cfg, ops, em); h.Generation != got {
		return &manifest.MismatchError{Field: "generation", Want: h.Generation, Got: got}
	}
	return nil
}

// abortSetup stops the progress reporter of a RunSet shell that is being
// abandoned without a Discard.
func (r *RunSet[T]) abortSetup(err error) (*RunSet[T], error) {
	r.o.reporter().Stop()
	return nil, err
}

// commitBoundary makes one run boundary durable: it snapshots the carried
// generator state to a spill file, then appends the manifest record tying
// together the run's file shape, the content checksums, the carry snapshot
// and the input position. Once AppendRun returns, a crash anywhere later
// resumes at (or after) this boundary.
func (r *RunSet[T]) commitBoundary(man *manifest.Writer, run runio.Run, carried []T, polName string, inputPos int64) (manifest.Run, error) {
	mr := manifest.Run{
		Records:      run.Records,
		Concatenable: run.Concatenable,
		Policy:       polName,
		InputPos:     inputPos,
	}
	for _, seg := range run.Segments {
		ms := manifest.Segment{Name: seg.Name, Records: seg.Records, Backward: seg.Backward, Files: seg.Files}
		if seg.Records > 0 {
			sum, ok := r.em.Sum(seg.Name)
			if !ok {
				return mr, fmt.Errorf("extsort: internal: no content checksum recorded for segment %s", seg.Name)
			}
			ms.Sum = sum
		}
		mr.Segments = append(mr.Segments, ms)
	}
	if len(carried) > 0 {
		name := r.em.Namer.Next("carry")
		w, err := runio.NewWriter(r.em.Store, name, r.em.WriteBuf, r.ops.Codec, neverLess[T])
		if err != nil {
			return mr, err
		}
		var sum uint64
		w.Track(func(_ int64, s uint64) { sum = s })
		if err := w.WriteBatch(carried); err != nil {
			w.Close()
			return mr, err
		}
		if err := w.Close(); err != nil {
			return mr, err
		}
		mr.CarryName, mr.CarryRecords, mr.CarrySum = name, int64(len(carried)), sum
	}
	mr.NamerSeq = r.em.Namer.Seq()
	if err := man.AppendRun(mr); err != nil {
		return mr, err
	}
	return mr, nil
}

// sumStream drains rc, recomputing the order-insensitive content checksum
// by re-encoding every element; with collect it also returns the elements.
func sumStream[T any](rc runio.ReadCloser[T], ops Ops[T], collect bool) (elems []T, n int64, sum uint64, err error) {
	defer rc.Close()
	br := stream.AsBatchReader[T](rc)
	buf := make([]T, 512)
	var scratch []byte
	for {
		k, rerr := br.ReadBatch(buf)
		for _, v := range buf[:k] {
			scratch = ops.Codec.Append(scratch[:0], v)
			sum += uint64(crc32.ChecksumIEEE(scratch))
		}
		if collect {
			elems = append(elems, buf[:k]...)
		}
		n += int64(k)
		if rerr == io.EOF || (rerr == nil && k == 0) {
			return elems, n, sum, nil
		}
		if rerr != nil {
			return nil, 0, 0, rerr
		}
	}
}

// validateRunFiles re-reads every segment of a manifest run and checks the
// element counts and content checksums against the record. A missing file
// surfaces as os.ErrNotExist (the caller treats it as "the durable prefix
// ends here"); present-but-mismatched data is manifest.ErrChecksum and
// always fatal — committed files are complete, so a mismatch is corruption.
func validateRunFiles[T any](store storage.Backend, mr manifest.Run, ops Ops[T]) error {
	for _, ms := range mr.Segments {
		if ms.Records == 0 {
			continue
		}
		seg := runio.Segment{Name: ms.Name, Records: ms.Records, Backward: ms.Backward, Files: ms.Files}
		rc, err := runio.OpenSegment[T](store, seg, 0, ops.Codec)
		if err != nil {
			return err
		}
		_, n, sum, err := sumStream(rc, ops, false)
		if err != nil {
			return err
		}
		if n != ms.Records || sum != ms.Sum {
			return fmt.Errorf("%w: run %d segment %s: manifest committed %d records (sum %016x), file holds %d (sum %016x)",
				manifest.ErrChecksum, mr.Seq, ms.Name, ms.Records, ms.Sum, n, sum)
		}
	}
	return nil
}

// readCarry loads and validates a boundary's carried-state snapshot.
func readCarry[T any](store storage.Backend, mr manifest.Run, ops Ops[T]) ([]T, error) {
	rc, err := runio.NewReader[T](store, mr.CarryName, 0, ops.Codec)
	if err != nil {
		return nil, err
	}
	elems, n, sum, err := sumStream[T](rc, ops, true)
	if err != nil {
		return nil, err
	}
	if n != mr.CarryRecords || sum != mr.CarrySum {
		return nil, fmt.Errorf("%w: carry %s: manifest committed %d records (sum %016x), file holds %d (sum %016x)",
			manifest.ErrChecksum, mr.CarryName, mr.CarryRecords, mr.CarrySum, n, sum)
	}
	return elems, nil
}

// toRunioRun reconstructs the in-memory run descriptor from its manifest
// record.
func toRunioRun(mr manifest.Run) runio.Run {
	run := runio.Run{Records: mr.Records, Concatenable: mr.Concatenable}
	for _, ms := range mr.Segments {
		run.Segments = append(run.Segments, runio.Segment{
			Name: ms.Name, Records: ms.Records, Backward: ms.Backward, Files: ms.Files,
		})
	}
	return run
}

// referencedNames returns every physical file name the given manifest runs
// reference: forward segment files, each file of a backward chain, and
// carry snapshots.
func referencedNames(runs []manifest.Run) map[string]bool {
	ref := make(map[string]bool)
	for _, mr := range runs {
		for _, ms := range mr.Segments {
			if ms.Records == 0 {
				continue
			}
			if ms.Backward {
				for i := 0; i < ms.Files; i++ {
					ref[fmt.Sprintf("%s.%d", ms.Name, i)] = true
				}
			} else {
				ref[ms.Name] = true
			}
		}
		if mr.CarryName != "" {
			ref[mr.CarryName] = true
		}
	}
	return ref
}

// adoptCommitted fills a RunSet shell from a fully validated committed
// manifest, recovering every run without touching the input.
func (r *RunSet[T]) adoptCommitted(st *manifest.State, entry time.Time) *RunSet[T] {
	sp := r.o.tracer().Start("resume",
		obs.Int("runs_recovered", int64(len(st.Runs))), obs.Bool("committed", true))
	for _, mr := range st.Runs {
		r.runs = append(r.runs, toRunioRun(mr))
		r.policies = append(r.policies, mr.Policy)
	}
	r.stats.RunsRecovered = len(r.runs)
	if len(st.Runs) > 0 {
		r.stats.Policy = st.Runs[0].Policy
	}
	r.stats.Keyed = st.Header.KeyCodec != ""
	sp.End()
	r.o.observeRecovered(len(r.runs))
	r.seal(st.Commit.Records, "resume", time.Since(entry), entry)
	return r
}

// Resume reconstructs a durable sort from the manifest a previous
// Manifest-mode pass left on fs and continues run generation from the last
// recoverable boundary. src must re-serve the same input from the start;
// Resume fast-forwards it to the recorded position, so only unprocessed
// records are read in full.
//
// Recovery is prefix-shaped: the longest leading sequence of runs whose
// files are all present and match their committed checksums — and whose
// boundary carry snapshot validates — is adopted; everything after it is
// regenerated deterministically (identical bytes, see the file comment). A
// missing file only shortens the prefix (e.g. a memory-tier spill lost with
// the process); present-but-mismatched data is manifest.ErrChecksum, a
// configuration change is manifest.MismatchError (errors.Is
// manifest.ErrMismatch), and no manifest at all is manifest.ErrNoManifest —
// wrong output is never produced.
func Resume[T any](src stream.Reader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	cfg.Manifest = true
	cfg, err := prepare(cfg, ops)
	if err != nil {
		return nil, err
	}
	st, err := manifest.Load(fs, manifest.Name(cfg.Prefix))
	if err != nil {
		return nil, err
	}
	rset, err := newRunSet(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	if err := checkHeader(st.Header, cfg, ops, rset.em); err != nil {
		return rset.abortSetup(err)
	}

	// The longest contiguous prefix of runs whose files validate.
	valid := 0
	for valid < len(st.Runs) {
		err := validateRunFiles(rset.store, st.Runs[valid], rset.ops)
		if err == nil {
			valid++
			continue
		}
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		return rset.abortSetup(err)
	}
	if st.Committed && valid == len(st.Runs) {
		// Generation had finished and every run survived: adopt the whole
		// set without reading the input at all. A crash after commit can
		// still leave behind half-written merge scratch and the carry
		// snapshots a finished generation no longer needs, so sweep every
		// spill file but the runs' own before adopting.
		ref := referencedNames(st.Runs)
		for _, mr := range st.Runs {
			delete(ref, mr.CarryName)
		}
		names, err := rset.store.Names()
		if err != nil {
			return rset.abortSetup(err)
		}
		for _, name := range names {
			if isSpillName(cfg.Prefix, name) && !ref[name] {
				rset.store.Remove(name)
			}
		}
		return rset.adoptCommitted(st, entry), nil
	}

	// Walk back to a boundary whose carried-state snapshot is available: a
	// boundary that carried nothing needs no snapshot; a missing snapshot
	// (like a missing run file) just shortens the prefix further.
	j := valid
	var carried []T
	for j > 0 {
		mr := st.Runs[j-1]
		if mr.CarryName == "" {
			break
		}
		elems, err := readCarry(rset.store, mr, rset.ops)
		if err == nil {
			carried = elems
			break
		}
		if errors.Is(err, os.ErrNotExist) {
			j--
			carried = nil
			continue
		}
		return rset.abortSetup(err)
	}

	rec := &recovered[T]{
		manRuns: st.Runs[:j],
		carried: carried,
	}
	for _, mr := range rec.manRuns {
		rec.runs = append(rec.runs, toRunioRun(mr))
		rec.policies = append(rec.policies, mr.Policy)
	}
	if j > 0 {
		rec.inputPos = st.Runs[j-1].InputPos
		rec.namerSeq = st.Runs[j-1].NamerSeq
	}

	// Sweep spill files the recovered prefix does not reference: runs past
	// the boundary, stale carries, and half-written files of the crashed
	// pass. They will be regenerated under the same names.
	ref := referencedNames(rec.manRuns)
	names, err := rset.store.Names()
	if err != nil {
		return rset.abortSetup(err)
	}
	for _, name := range names {
		if isSpillName(cfg.Prefix, name) && !ref[name] {
			rset.store.Remove(name)
		}
	}
	return rset.generate(src, rec, entry)
}

// OpenRunSet adopts the run set of a completed (committed) Manifest-mode
// generation pass, typically from another process: every run file is
// validated against the manifest before any of them is trusted. It never
// reads the sort input — an uncommitted manifest is manifest.ErrNotCommitted
// (resume that with Resume, which can regenerate), and a committed manifest
// with missing or mismatched files is an error rather than a partial set.
func OpenRunSet[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	cfg.Manifest = true
	cfg, err := prepare(cfg, ops)
	if err != nil {
		return nil, err
	}
	st, err := manifest.Load(fs, manifest.Name(cfg.Prefix))
	if err != nil {
		return nil, err
	}
	if !st.Committed {
		return nil, fmt.Errorf("%w: %s", manifest.ErrNotCommitted, manifest.Name(cfg.Prefix))
	}
	rset, err := newRunSet(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	if err := checkHeader(st.Header, cfg, ops, rset.em); err != nil {
		return rset.abortSetup(err)
	}
	for _, mr := range st.Runs {
		if err := validateRunFiles(rset.store, mr, rset.ops); err != nil {
			return rset.abortSetup(err)
		}
	}
	return rset.adoptCommitted(st, entry), nil
}

// Persist reports the manifest file name describing this run set, so
// another process can adopt the runs with OpenRunSet (same fs, same
// Config.Prefix). The manifest is already durable and committed by the
// time GenerateRuns returns; Persist only names it. It errors for
// non-durable sorts, and after Merge or Discard have invalidated the
// manifest.
func (r *RunSet[T]) Persist() (string, error) {
	if r.manifestName == "" {
		return "", fmt.Errorf("extsort: Persist needs a durable sort (Config.Manifest) whose manifest is still live")
	}
	return r.manifestName, nil
}
