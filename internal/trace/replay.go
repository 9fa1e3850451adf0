package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/arch"
)

// Trace file format: a fixed header followed by fixed-size little-endian
// records. The format exists so users can bring traces from real systems
// (e.g. converted from Pin or DynamoRIO logs) and replay them through the
// simulator, or export the synthetic workloads for external analysis.
//
//	header:  magic "DPTR" | version u16 | flags u16 | name len u16 | name
//	record:  pc u64 | vaddr u64 | gap u32 | flags u8 (bit0 write,
//	         bit1 dependent) | pad [3]u8
const (
	traceMagic   = "DPTR"
	traceVersion = 1
	recordSize   = 8 + 8 + 4 + 1 + 3
)

const (
	recFlagWrite     = 1 << 0
	recFlagDependent = 1 << 1
	// recFlagReserved masks record flag bits 2..7, which must be zero on
	// disk — like the header's reserved flags, a set bit means a future
	// format or corruption, and both readers reject it.
	recFlagReserved = ^uint8(recFlagWrite | recFlagDependent)
)

// Writer streams accesses into a trace file.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
	n   uint64
}

// NewWriter writes a trace header for the named workload and returns a
// Writer for its records.
func NewWriter(w io.Writer, name string) (*Writer, error) {
	if len(name) > 1<<16-1 {
		return nil, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:], traceVersion)
	binary.LittleEndian.PutUint16(hdr[2:], 0) // flags
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one access record.
func (t *Writer) Write(a Access) error {
	b := t.buf[:]
	binary.LittleEndian.PutUint64(b[0:], a.PC)
	binary.LittleEndian.PutUint64(b[8:], uint64(a.Addr))
	binary.LittleEndian.PutUint32(b[16:], a.Gap)
	var flags byte
	if a.Write {
		flags |= recFlagWrite
	}
	if a.Dependent {
		flags |= recFlagDependent
	}
	b[20] = flags
	b[21], b[22], b[23] = 0, 0, 0
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	t.n++
	return nil
}

// Records returns the number of records written.
func (t *Writer) Records() uint64 { return t.n }

// Flush flushes buffered records to the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Record captures n accesses from a generator into w. A source generator
// that latches an error (ErrGenerator) fails the capture instead of
// recording its repeated final access.
func Record(w io.Writer, g Generator, n uint64) error {
	return RecordContext(context.Background(), w, g, n)
}

// RecordContext is Record with cancellation: the capture loop checks ctx
// on a coarse stride and stops with ctx's error when it is canceled.
func RecordContext(ctx context.Context, w io.Writer, g Generator, n uint64) error {
	tw, err := NewWriter(w, g.Name())
	if err != nil {
		return err
	}
	done := ctx.Done()
	for i := uint64(0); i < n; i++ {
		if done != nil && i&(ctxCheckStride-1) == 0 {
			select {
			case <-done:
				return fmt.Errorf("trace: recording %s canceled at record %d of %d: %w",
					g.Name(), i, n, ctx.Err())
			default:
			}
		}
		if err := tw.Write(g.Next()); err != nil {
			return err
		}
		if err := GeneratorErr(g); err != nil {
			return fmt.Errorf("trace: recording %s: %w", g.Name(), err)
		}
	}
	return tw.Flush()
}

// ctxCheckStride is how many loop iterations this package's drain loops
// (Record, Materialize, RecordV2) run between context checks: frequent
// enough that cancellation lands within microseconds, coarse enough that
// the check is invisible next to the per-iteration work. It is also the
// DPBF v2 chunk size, so the v2 writers check once per chunk.
const ctxCheckStride = 4096

// Every drain loop tests the stride with the mask form
// i&(ctxCheckStride-1) == 0, which is only equivalent to i%ctxCheckStride
// when the stride is a power of two; this constant fails to compile
// otherwise (a negative value cannot convert to uint).
const _ uint = -(ctxCheckStride & (ctxCheckStride - 1))

// Replayer is a Generator that reads a recorded trace. When the trace is
// exhausted it either loops (loop=true) or keeps returning the final
// access, mirroring the scripted generators used in tests. It implements
// ErrGenerator: the first read or validation error latches and is
// reported by Err, because Next cannot return errors without breaking the
// Generator contract.
type Replayer struct {
	r    *bufio.Reader
	name string
	buf  [recordSize]byte
	last Access
	any  bool
	// rec counts records delivered so far (across loop rewinds), giving
	// latched errors a stream position.
	rec uint64
	// Loop restarts from the first record at EOF; requires the
	// underlying reader to be an io.ReadSeeker.
	loop   bool
	seeker io.ReadSeeker
	body   int64
	// err is the first read or validation error (other than clean EOF
	// handling); see Err.
	err error
}

// Err implements ErrGenerator: it returns the first read or validation
// error the replay latched, or nil. Once Err is non-nil every Next
// returns the last good access unchanged.
func (t *Replayer) Err() error { return t.err }

// NewReplayer opens a recorded trace. If loop is true the source must be
// an io.ReadSeeker and the trace restarts at EOF; otherwise the final
// access repeats.
func NewReplayer(r io.Reader, loop bool) (*Replayer, error) {
	br := bufio.NewReader(r)
	name, hdrLen, err := readTraceHeader(br)
	if err != nil {
		return nil, err
	}
	rp := &Replayer{r: br, name: name, loop: loop}
	if loop {
		rs, ok := r.(io.ReadSeeker)
		if !ok {
			return nil, errors.New("trace: looping replay needs an io.ReadSeeker")
		}
		rp.seeker = rs
		rp.body = hdrLen
	}
	return rp, nil
}

// readTraceHeader consumes and validates a DPTR header, returning the
// workload name and the header's byte length (the seek target for looping
// replay).
func readTraceHeader(br *bufio.Reader) (name string, hdrLen int64, err error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return "", 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return "", 0, fmt.Errorf("trace: bad magic %q", magic)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != traceVersion {
		return "", 0, fmt.Errorf("trace: unsupported version %d", v)
	}
	if fl := binary.LittleEndian.Uint16(hdr[2:]); fl != 0 {
		return "", 0, fmt.Errorf("trace: reserved header flags %#x set", fl)
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[4:]))
	nb := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nb); err != nil {
		return "", 0, fmt.Errorf("trace: reading name: %w", err)
	}
	return string(nb), int64(4 + len(hdr) + nameLen), nil
}

// Name implements Generator.
func (t *Replayer) Name() string { return t.name }

// errEmptyTrace reports a structurally valid trace with zero records.
var errEmptyTrace = errors.New("trace: no records")

// Next implements Generator. The retry loop handles at most one rewind:
// looping replay seeks back to the first record on clean EOF, and a trace
// that still cannot produce a record latches errEmptyTrace rather than
// spinning.
func (t *Replayer) Next() Access {
	if t.err != nil {
		return t.last
	}
	for rewinds := 0; ; rewinds++ {
		_, err := io.ReadFull(t.r, t.buf[:])
		if err == nil {
			break
		}
		if err == io.ErrUnexpectedEOF {
			t.err = fmt.Errorf("trace: record %d truncated (partial trailing record): %w", t.rec, err)
			return t.last
		}
		if err != io.EOF {
			t.err = fmt.Errorf("trace: record %d: %w", t.rec, err)
			return t.last
		}
		if !t.any || !t.loop {
			if !t.any {
				t.err = errEmptyTrace
			}
			return t.last // repeat final access (or zero value, err latched)
		}
		if rewinds > 0 {
			t.err = errEmptyTrace
			return t.last
		}
		if _, serr := t.seeker.Seek(t.body, io.SeekStart); serr != nil {
			t.err = serr
			return t.last
		}
		t.r.Reset(t.seeker)
	}
	b := t.buf[:]
	flags := b[20]
	if flags&recFlagReserved != 0 {
		t.err = fmt.Errorf("trace: record %d: reserved record flag bits %#x set", t.rec, flags&recFlagReserved)
		return t.last
	}
	if b[21] != 0 || b[22] != 0 || b[23] != 0 {
		t.err = fmt.Errorf("trace: record %d: nonzero pad bytes % x", t.rec, b[21:24])
		return t.last
	}
	t.any = true
	t.rec++
	t.last = Access{
		PC:        binary.LittleEndian.Uint64(b[0:]),
		Addr:      arch.VAddr(binary.LittleEndian.Uint64(b[8:])),
		Gap:       binary.LittleEndian.Uint32(b[16:]),
		Write:     flags&recFlagWrite != 0,
		Dependent: flags&recFlagDependent != 0,
	}
	return t.last
}
