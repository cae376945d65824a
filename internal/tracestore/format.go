// Package tracestore is the durable trace subsystem: a
// content-addressed, on-disk store for memory-access traces and the
// streaming codec that moves traces in and out of it.
//
// The paper's methodology rests on traces collected from instrumented
// applications; this package is what lets a real reference stream
// enter the reproduction. Traces arrive as NDJSON, CSV (either
// optionally gzipped) or the store's own binary format, are
// re-encoded block by block — nothing buffers a whole trace in memory
// — and land in a compact binary file: a versioned fixed-size header
// carrying the stream summary, followed by CRC-checked blocks of
// varint-delta-encoded addresses and run-length-encoded access kinds.
// The header seal and the block frame (sealHeader, appendFrame and
// readFrame) are shared with the miss streams of missstream.go, the
// recorded L1/L2 passes of stored-trace replays.
//
// Every trace is addressed by the SHA-256 of its canonical access
// stream (8-byte little-endian address + 1 kind byte per access), so
// the id is independent of upload format and compression: re-uploading
// the same trace — or the same trace gzipped — dedupes to the same
// content address without writing a second copy.
//
// Provider (provider.go) serves a stored trace back as a
// tracesim.BlockSource, the one stream interface replay consumes, so
// replay of a stored trace is exactly the replay of the synthetic
// stream it was exported from.
package tracestore

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"runtime"
	"sync"

	"repro/internal/tracesim"
	"repro/internal/units"
)

const (
	// magic identifies a tracestore file; the trailing digit is the
	// major format generation.
	magic = "TRCSTOR1"
	// formatVersion is bumped on any incompatible layout change.
	formatVersion = 1
	// headerSize is the fixed on-disk header length in bytes.
	headerSize = 64
	// blockAccesses is the encoder's block granularity: large enough
	// to amortise the per-block CRC and length prefix, small enough
	// that decode buffers stay cache-resident.
	blockAccesses = 8192
	// maxBlockAccesses and maxBlockPayload bound what the decoder will
	// allocate for one block, so a corrupted count or length field
	// cannot demand gigabytes.
	maxBlockAccesses = 1 << 20
	maxBlockPayload  = 32 << 20
	// maxTrackedLines bounds the distinct-line (footprint) set the
	// encoder keeps in memory: 2M lines = a 128 MiB footprint counted
	// exactly, ~100 MB of transient map at worst. Past it the counter
	// saturates — Summary.Lines becomes a floor — instead of letting
	// one sparse upload grow the set without bound.
	maxTrackedLines = 1 << 21
)

// Summary is the stream-level metadata the header carries: computed
// during encoding, served as trace metadata without touching the
// blocks.
type Summary struct {
	Accesses int64  // total references
	Reads    int64  // references with kind Read
	Writes   int64  // references with kind Write
	MinAddr  uint64 // lowest byte address touched
	MaxAddr  uint64 // highest byte address touched
	// Lines counts distinct cache lines touched (the footprint):
	// exact up to maxTrackedLines, a floor beyond (the counter
	// saturates rather than growing without bound).
	Lines int64
}

// Footprint is the unique bytes touched, at cache-line granularity.
func (s Summary) Footprint() units.Bytes {
	return units.Bytes(s.Lines) * units.CacheLine
}

// encodeHeader lays the summary out in the fixed header form, sealed
// (sealHeader) so a truncated or scribbled header is detected before
// any block is trusted.
func encodeHeader(sum Summary) [headerSize]byte {
	var h [headerSize]byte
	binary.LittleEndian.PutUint16(h[8:10], formatVersion)
	binary.LittleEndian.PutUint64(h[12:20], uint64(sum.Accesses))
	binary.LittleEndian.PutUint64(h[20:28], uint64(sum.Reads))
	binary.LittleEndian.PutUint64(h[28:36], uint64(sum.Writes))
	binary.LittleEndian.PutUint64(h[36:44], sum.MinAddr)
	binary.LittleEndian.PutUint64(h[44:52], sum.MaxAddr)
	binary.LittleEndian.PutUint64(h[52:60], uint64(sum.Lines))
	sealHeader(h[:], magic)
	return h
}

// decodeHeader validates and parses a header.
func decodeHeader(h []byte) (Summary, error) {
	if err := openHeader(h, headerSize, magic); err != nil {
		return Summary{}, fmt.Errorf("tracestore: %w", err)
	}
	if v := binary.LittleEndian.Uint16(h[8:10]); v != formatVersion {
		return Summary{}, fmt.Errorf("tracestore: unsupported format version %d (want %d)", v, formatVersion)
	}
	return Summary{
		Accesses: int64(binary.LittleEndian.Uint64(h[12:20])),
		Reads:    int64(binary.LittleEndian.Uint64(h[20:28])),
		Writes:   int64(binary.LittleEndian.Uint64(h[28:36])),
		MinAddr:  binary.LittleEndian.Uint64(h[36:44]),
		MaxAddr:  binary.LittleEndian.Uint64(h[44:52]),
		Lines:    int64(binary.LittleEndian.Uint64(h[52:60])),
	}, nil
}

// Trace files and miss streams (missstream.go) share their framing.
// Each opens with a sealed fixed-size header: an 8-byte magic first,
// the CRC32 of every preceding byte in the last four, and the format's
// own version and fields in between. The header is followed by blocks,
// each one frame:
//
//	uvarint(len(payload)) | payload | u32 CRC32(payload)

// sealHeader stamps magic and the CRC into h, whose fields are laid out.
func sealHeader(h []byte, magic string) {
	copy(h, magic)
	n := len(h) - 4
	binary.LittleEndian.PutUint32(h[n:], crc32.ChecksumIEEE(h[:n]))
}

// openHeader checks that h begins with a sealed header of size bytes
// under magic.
func openHeader(h []byte, size int, magic string) error {
	if len(h) < size {
		return fmt.Errorf("short header (%d bytes)", len(h))
	}
	if string(h[:8]) != magic {
		return fmt.Errorf("bad magic %q", h[:8])
	}
	n := size - 4
	if got, want := crc32.ChecksumIEEE(h[:n]), binary.LittleEndian.Uint32(h[n:size]); got != want {
		return fmt.Errorf("header checksum mismatch (%#x != %#x)", got, want)
	}
	return nil
}

// appendFrame appends the frame of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// readFrame reads the next frame from br and returns its checked
// payload, reusing buf's storage. A payload length of 0 or above max
// is rejected before anything is allocated, so a corrupted length
// cannot demand gigabytes. A stream that ends cleanly before the
// frame returns io.EOF.
func readFrame(br *bufio.Reader, buf []byte, max uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return buf, io.EOF
	}
	if err != nil {
		return buf, fmt.Errorf("block length: %w", err)
	}
	if n == 0 || n > max {
		return buf, fmt.Errorf("implausible block payload length %d", n)
	}
	// Payload and CRC are read in one call into one buffer: a separate
	// checksum array would escape through io.ReadFull on every block.
	if uint64(cap(buf)) < n+4 {
		buf = make([]byte, n+4)
	}
	buf = buf[:n+4]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, fmt.Errorf("truncated block: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(buf[:n]), binary.LittleEndian.Uint32(buf[n:]); got != want {
		return buf, fmt.Errorf("block checksum mismatch (%#x != %#x)", got, want)
	}
	return buf[:n], nil
}

// fileOut is where a trace file or a miss stream is written: the
// block stream in order, then the sealed header at offset 0.
type fileOut interface {
	io.Writer
	io.WriterAt
}

// lineSet is an insert-only open-addressed hash set of cache-line
// numbers, used for the exact footprint count. It replaces a
// map[uint64]struct{} on the ingest hot path: Fibonacci hashing plus
// linear probing costs a fraction of a runtime map insert, and the
// encoder only ever needs Add and Len.
type lineSet struct {
	tab   []uint64 // stores line+1; 0 = empty slot
	n     int
	shift uint   // 64 - log2(len(tab))
	sink  uint64 // keeps AddBatch's slot pre-touches alive
}

func newLineSet() *lineSet {
	// 512 KiB up front: large traces skip several full-table rehashes,
	// and one ingest allocates exactly one of these.
	const initial = 1 << 16
	return &lineSet{tab: make([]uint64, initial), shift: 64 - 16}
}

func (s *lineSet) Len() int { return s.n }

// Add inserts line (idempotent).
func (s *lineSet) Add(line uint64) {
	k := line + 1
	i := (k * 0x9E3779B97F4A7C15) >> s.shift
	mask := uint64(len(s.tab) - 1)
	for {
		v := s.tab[i]
		if v == k {
			return
		}
		if v == 0 {
			s.tab[i] = k
			s.n++
			if s.n*4 >= len(s.tab)*3 {
				s.grow()
			}
			return
		}
		i = (i + 1) & mask
	}
}

// AddBatch inserts every line in batch, stopping once the set holds
// max entries (same saturation gate as per-line Add calls in stream
// order). Slots are touched eight at a time before the serial probes
// so the DRAM misses overlap; a lone Add is one dependent miss per
// line once the table outgrows the cache.
func (s *lineSet) AddBatch(batch []uint64, max int) {
	var sink uint64
	for len(batch) > 0 && s.n < max {
		g := batch
		if len(g) > 8 {
			g = g[:8]
		}
		for _, line := range g {
			sink ^= s.tab[((line+1)*0x9E3779B97F4A7C15)>>s.shift]
		}
		for _, line := range g {
			if s.n >= max {
				break
			}
			s.Add(line)
		}
		batch = batch[len(g):]
	}
	// Per-set sink keeps the touch loads alive without a global (a
	// shared global would race across concurrent ingests).
	s.sink ^= sink
}

func (s *lineSet) grow() {
	old := s.tab
	s.tab = make([]uint64, len(old)*2)
	s.shift--
	mask := uint64(len(s.tab) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := (k * 0x9E3779B97F4A7C15) >> s.shift
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = k
	}
}

// zigzag maps a signed delta to an unsigned varint-friendly form:
// small magnitudes of either sign encode short.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// blockBuf holds one block's accesses and everything derived from
// them. encode is pure given (accs, base), so blocks can be encoded
// on any worker goroutine with byte-identical results; the buffers are
// reused across blocks.
type blockBuf struct {
	accs    []tracesim.Access
	base    uint64 // delta base: last address of the preceding block
	wire    []byte // the payload's frame, ready to write
	payload []byte
	shaBuf  []byte // canonical 9-byte records (content-address input)
	lineBuf []uint64
	done    chan struct{} // signals encode completion to the writer
}

func newBlockBuf() *blockBuf {
	return &blockBuf{
		accs:   make([]tracesim.Access, 0, blockAccesses),
		shaBuf: make([]byte, 0, 9*blockAccesses),
		done:   make(chan struct{}, 1),
	}
}

// encode renders accs into wire (the frame of: varint count,
// zigzag-varint address deltas off base, kind runs), shaBuf and
// lineBuf.
//
//simd:hotpath — runs once per 4096-access block; every buffer is a reused field.
func (b *blockBuf) encode() {
	n := len(b.accs)
	p := binary.AppendUvarint(b.payload[:0], uint64(n))
	prev := b.base
	if cap(b.shaBuf) < 9*n {
		b.shaBuf = make([]byte, 9*n) //simd:alloc-ok amortized: grows once, then the field is reused every block
	}
	b.shaBuf = b.shaBuf[:9*n]
	b.lineBuf = b.lineBuf[:0]
	off := 0
	for _, a := range b.accs {
		p = binary.AppendUvarint(p, zigzag(int64(a.Addr-prev)))
		prev = a.Addr
		binary.LittleEndian.PutUint64(b.shaBuf[off:off+8], a.Addr)
		b.shaBuf[off+8] = kindByte(a.Kind)
		off += 9
		b.lineBuf = append(b.lineBuf, a.Addr/uint64(units.CacheLine))
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && b.accs[j].Kind == b.accs[i].Kind {
			j++
		}
		p = binary.AppendUvarint(p, uint64(j-i))
		p = append(p, kindByte(b.accs[i].Kind))
		i = j
	}
	b.payload = p
	b.wire = appendFrame(b.wire[:0], p)
}

// last returns the block's final address (delta base for the next
// block). Only valid on a non-empty block.
func (b *blockBuf) last() uint64 { return b.accs[len(b.accs)-1].Addr }

// Encoder streams accesses into the block format, accumulating the
// Summary and the content address as it goes. It writes only the
// block stream; callers own the header (they know the final Summary
// only after Finish).
//
// Encoding is pipelined: the Append caller scans accesses into blocks,
// full blocks are encoded by worker goroutines, and a single writer
// goroutine consumes the encoded blocks in dispatch order. Everything
// order-sensitive stays serial in the writer — the file bytes, the
// SHA-256 over the canonical records, and the saturating footprint-set
// inserts — so the output file, content address, and Summary do not
// depend on the worker count (the golden fixtures pin them at several).
// Block encoding itself (varint deltas, kind runs, frame, canonical
// records) is order-free given the carried delta base, which the
// dispatcher threads through at dispatch time.
//
// An Encoder holds goroutines until Finish or Abort.
type Encoder struct {
	bw  *bufio.Writer
	sum Summary

	sha   hash.Hash
	lines *lineSet
	prev  uint64 // last dispatched address: next block's delta base

	cur   *blockBuf
	jobs  chan *blockBuf // to encode workers, unordered
	order chan *blockBuf // dispatch order, consumed by the writer
	free  chan *blockBuf // recycled buffers (backpressure)
	wg    sync.WaitGroup
	wdone chan struct{}
	werr  error // writer-side error; read only after wdone
	ended bool
}

// NewEncoder builds an encoder over w with one encode worker per
// usable CPU (runtime.GOMAXPROCS).
func NewEncoder(w io.Writer) *Encoder {
	return newEncoder(w, runtime.GOMAXPROCS(0))
}

// newEncoder builds an encoder with the given worker count.
func newEncoder(w io.Writer, workers int) *Encoder {
	if workers < 1 {
		workers = 1
	}
	inflight := workers + 2
	e := &Encoder{
		bw:    bufio.NewWriterSize(w, 256<<10),
		sha:   sha256.New(),
		lines: newLineSet(),
		sum:   Summary{MinAddr: ^uint64(0)},
		jobs:  make(chan *blockBuf, inflight),
		order: make(chan *blockBuf, inflight),
		// inflight+1 buffers circulate (the pool plus the encoder's
		// current block); free must hold all of them or the writer
		// deadlocks returning the last one at shutdown.
		free:  make(chan *blockBuf, inflight+1),
		wdone: make(chan struct{}),
	}
	e.cur = newBlockBuf()
	for i := 0; i < inflight; i++ {
		e.free <- newBlockBuf()
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for b := range e.jobs {
				b.encode()
				b.done <- struct{}{}
			}
		}()
	}
	go e.writer()
	return e
}

// writer consumes encoded blocks in dispatch order. It is the only
// goroutine touching the file, the hash, and the footprint set, so
// their serial semantics survive the parallel encode.
func (e *Encoder) writer() {
	defer close(e.wdone)
	for b := range e.order {
		<-b.done
		if e.werr == nil {
			if _, err := e.bw.Write(b.wire); err != nil {
				e.werr = err
			} else {
				e.sha.Write(b.shaBuf)
				e.lines.AddBatch(b.lineBuf, maxTrackedLines)
			}
		}
		b.accs = b.accs[:0]
		e.free <- b
	}
}

// Append adds one access to the stream.
func (e *Encoder) Append(a tracesim.Access) {
	e.sum.Accesses++
	if a.Kind == writeKind {
		e.sum.Writes++
	} else {
		e.sum.Reads++
	}
	if a.Addr < e.sum.MinAddr {
		e.sum.MinAddr = a.Addr
	}
	if a.Addr > e.sum.MaxAddr {
		e.sum.MaxAddr = a.Addr
	}
	e.cur.accs = append(e.cur.accs, a)
	if len(e.cur.accs) == blockAccesses {
		e.dispatch()
		e.cur = <-e.free
	}
}

// dispatch hands the current block to the workers. The delta base
// chain is maintained here, in stream order, so encodes can complete
// out of order.
func (e *Encoder) dispatch() {
	b := e.cur
	if len(b.accs) == 0 {
		return
	}
	b.base = e.prev
	e.prev = b.last()
	e.order <- b
	e.jobs <- b
	e.cur = nil
}

// shutdown flushes the tail block (when finishing) and quiesces the
// pipeline. Idempotent.
func (e *Encoder) shutdown(finish bool) {
	if e.ended {
		return
	}
	e.ended = true
	if finish {
		e.dispatch()
	}
	close(e.jobs)
	e.wg.Wait()
	close(e.order)
	<-e.wdone
}

// Abort tears the pipeline down after a failed ingest. Idempotent.
func (e *Encoder) Abort() { e.shutdown(false) }

// Finish drains the pipeline and returns the Summary plus the
// trace's content address (hex SHA-256 of the canonical access
// stream). An empty stream is an error: a trace with no accesses
// cannot be replayed.
func (e *Encoder) Finish() (Summary, string, error) {
	e.shutdown(true)
	err := e.werr
	if err == nil {
		err = e.bw.Flush()
	}
	if err != nil {
		return Summary{}, "", err
	}
	if e.sum.Accesses == 0 {
		return Summary{}, "", fmt.Errorf("tracestore: empty trace (no accesses)")
	}
	e.sum.Lines = int64(e.lines.Len())
	return e.sum, hex.EncodeToString(e.sha.Sum(nil)), nil
}

// Decoder streams accesses back out of the block format.
type Decoder struct {
	br   *bufio.Reader
	prev uint64
	buf  []tracesim.Access

	payload []byte
	done    bool
	err     error
}

// NewDecoder builds a decoder positioned at the first block (callers
// consume the header first).
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, 256<<10)}
}

// reset repositions the decoder at the first block of r, keeping its
// read and block buffers.
func (d *Decoder) reset(r io.Reader) {
	d.br.Reset(r)
	d.prev, d.done, d.err = 0, false, nil
}

// readBlock loads and validates the next block into d.buf. It returns
// false at clean end of stream or on error (see Err).
func (d *Decoder) readBlock() bool {
	if d.done || d.err != nil {
		return false
	}
	p, err := readFrame(d.br, d.payload, maxBlockPayload)
	d.payload = p
	if err == io.EOF {
		d.done = true
		return false
	}
	if err != nil {
		d.err = fmt.Errorf("tracestore: %w", err)
		return false
	}

	n, k := binary.Uvarint(p)
	if k <= 0 || n == 0 || n > maxBlockAccesses {
		d.err = fmt.Errorf("tracestore: bad block access count %d", n)
		return false
	}
	p = p[k:]
	if cap(d.buf) < int(n) {
		d.buf = make([]tracesim.Access, n)
	}
	d.buf = d.buf[:n]
	prev := d.prev
	for i := range d.buf {
		u, k := binary.Uvarint(p)
		if k <= 0 {
			d.err = fmt.Errorf("tracestore: truncated address delta at access %d", i)
			return false
		}
		p = p[k:]
		prev += uint64(unzigzag(u))
		d.buf[i].Addr = prev
	}
	d.prev = prev
	for covered := uint64(0); covered < n; {
		run, k := binary.Uvarint(p)
		if k <= 0 || run == 0 || covered+run > n || len(p) <= k {
			d.err = fmt.Errorf("tracestore: bad kind run at access %d", covered)
			return false
		}
		kind := kindFromByte(p[k])
		p = p[k+1:]
		for i := covered; i < covered+run; i++ {
			d.buf[i].Kind = kind
		}
		covered += run
	}
	if len(p) != 0 {
		d.err = fmt.Errorf("tracestore: %d trailing bytes in block payload", len(p))
		return false
	}
	return true
}

// NextBlock returns the decoder's next decoded block as a view of its
// internal buffer — no copy — valid only until the next NextBlock
// call. It returns ok=false at end of stream or on error (check Err).
//
//simd:hotpath — the replay feed; runs once per block on every simulated campaign point.
func (d *Decoder) NextBlock() ([]tracesim.Access, bool) {
	if !d.readBlock() {
		return nil, false
	}
	return d.buf, true
}

// Err reports the first decode error, if any.
func (d *Decoder) Err() error { return d.err }
