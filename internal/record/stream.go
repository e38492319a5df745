package record

import (
	"io"

	"repro/internal/stream"
)

// ErrClosed is returned by stream operations after Close. It is the shared
// stream.ErrClosed so generic and Record-specific layers agree.
var ErrClosed = stream.ErrClosed

// Reader is the minimal record-at-a-time input interface consumed by all run
// generation algorithms. Read returns io.EOF when the stream is exhausted.
// It is the Record instantiation of the generic stream.Reader.
type Reader = stream.Reader[Record]

// Writer is the record-at-a-time output interface produced by run
// generation and consumed by the merge phase.
type Writer = stream.Writer[Record]

// SliceReader adapts an in-memory slice to the Reader interface.
type SliceReader = stream.SliceReader[Record]

// NewSliceReader returns a Reader over recs. The slice is not copied; the
// caller must not mutate it while reading.
func NewSliceReader(recs []Record) *SliceReader { return stream.NewSliceReader(recs) }

// SliceWriter collects written records in memory.
type SliceWriter = stream.SliceWriter[Record]

// ReadAll drains r into a slice. It is intended for tests and examples
// where the stream is known to fit in memory; sized sources get a
// pre-sized result.
func ReadAll(r Reader) ([]Record, error) {
	return stream.ReadAll[Record](r)
}

// WriteAll writes every record of recs to w, stopping at the first error.
func WriteAll(w Writer, recs []Record) error {
	return stream.WriteAll[Record](w, recs)
}

// Copy streams records from r to w until EOF, returning the number copied.
// Batches move whole when either side supports the batch protocol.
func Copy(w Writer, r Reader) (int64, error) {
	return stream.Copy[Record](w, r)
}

// ByteReader decodes records from an io.Reader carrying the binary record
// encoding. It buffers internally in whole-record units.
type ByteReader struct {
	src     io.Reader
	buf     [Size]byte
	slab    []byte // batch decode scratch
	pendErr error  // error deferred by ReadBatch after a partial batch
}

// NewByteReader returns a Reader decoding records from src.
func NewByteReader(src io.Reader) *ByteReader { return &ByteReader{src: src} }

// Read decodes the next record. A trailing partial record surfaces as
// io.ErrUnexpectedEOF.
func (b *ByteReader) Read() (Record, error) {
	if _, err := io.ReadFull(b.src, b.buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	return Decode(b.buf[:]), nil
}

// ReadBatch decodes up to len(dst) records from one slab read of the
// underlying byte stream.
func (b *ByteReader) ReadBatch(dst []Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if b.pendErr != nil {
		err := b.pendErr
		b.pendErr = nil
		return 0, err
	}
	want := len(dst) * Size
	if cap(b.slab) < want {
		b.slab = make([]byte, want)
	}
	slab := b.slab[:want]
	n, err := io.ReadFull(b.src, slab)
	recs := n / Size
	for i := 0; i < recs; i++ {
		dst[i] = Decode(slab[i*Size:])
	}
	if err == io.ErrUnexpectedEOF && n%Size == 0 {
		// The stream ended cleanly on a record boundary mid-slab.
		err = io.EOF
	}
	if err != nil {
		if recs > 0 {
			b.pendErr = err
			return recs, nil
		}
		return 0, err
	}
	return recs, nil
}

// ByteWriter encodes records onto an io.Writer.
type ByteWriter struct {
	dst  io.Writer
	buf  [Size]byte
	slab []byte // batch encode scratch
}

// NewByteWriter returns a Writer encoding records to dst.
func NewByteWriter(dst io.Writer) *ByteWriter { return &ByteWriter{dst: dst} }

// Write encodes r to the underlying writer.
func (b *ByteWriter) Write(r Record) error {
	Encode(b.buf[:], r)
	_, err := b.dst.Write(b.buf[:])
	return err
}

// WriteBatch encodes src into one slab and hands it to the underlying
// writer in a single call.
func (b *ByteWriter) WriteBatch(src []Record) error {
	want := len(src) * Size
	if cap(b.slab) < want {
		b.slab = make([]byte, want)
	}
	slab := b.slab[:want]
	for i, r := range src {
		Encode(slab[i*Size:], r)
	}
	_, err := b.dst.Write(slab)
	return err
}
