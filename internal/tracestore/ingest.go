package tracestore

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/tracesim"
)

// This file is the ingest half of the codec: format sniffing and the
// streaming text parsers. All upload formats funnel into the same
// emit callback (the Encoder), so a trace's content address never
// depends on how it was spelled or compressed.
//
// Text parsing is two-tier. The fast tier (parseNDJSONFast,
// parseCSVFast) works on the scanner's byte slices with no per-line
// allocation and handles the common spellings; it accepts an input
// only when its result is provably identical to what the reference
// tier would produce. Anything unusual — escapes, unknown JSON keys,
// octal/underscore numerals, non-ASCII whitespace — falls back, line
// by line, to the reference parsers (parseNDJSONLine via
// encoding/json, parseCSVLine via strconv), which also own all error
// reporting. Equivalence of the two tiers is enforced by the
// differential fuzz targets in fuzz_test.go.

// writeKind is the wire value for stores (reads are the zero kind).
const writeKind = cache.Write

// kindByte maps an access kind to its on-disk byte.
func kindByte(k cache.AccessKind) byte {
	if k == cache.Write {
		return 1
	}
	return 0
}

// kindFromByte inverts kindByte. Unknown bytes decode as reads; the
// encoder only ever emits 0 or 1, and the CRC catches corruption.
func kindFromByte(b byte) cache.AccessKind {
	if b == 1 {
		return cache.Write
	}
	return cache.Read
}

// parseKind maps the text spellings to a kind: "R", "read" or "0" is
// a load, "W", "write" or "1" a store; empty defaults to a load.
func parseKind(s string) (cache.AccessKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "r", "read", "0", "load":
		return cache.Read, nil
	case "w", "write", "1", "store":
		return cache.Write, nil
	}
	return cache.Read, fmt.Errorf("bad access kind %q (want R|W)", s)
}

// parseAddr accepts decimal or 0x-prefixed hex addresses.
func parseAddr(s string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", s)
	}
	return v, nil
}

// maxLineBytes bounds one text line; real trace lines are tens of
// bytes.
const maxLineBytes = 1 << 20

// ErrTooLarge reports a stream that exceeded the ingest byte limit.
// It fires on the DECODED stream, so a small gzip upload cannot
// expand past the limit ("gzip bomb"); the service maps it to 413.
var ErrTooLarge = errors.New("tracestore: trace stream exceeds the size limit")

// limitReader returns ErrTooLarge once more than its budget has been
// read (unlike io.LimitReader, whose silent EOF would be
// indistinguishable from a truncated upload). Callers hand it
// limit+1 so a stream of exactly the limit passes.
type limitReader struct {
	r io.Reader
	n int64 // remaining budget
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, ErrTooLarge
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// decodeInto sniffs the stream format and feeds every access to emit:
// gzip is unwrapped (and the inner stream re-sniffed), the binary
// format is decoded block by block, and anything else is treated as
// text (NDJSON when the first data line opens a JSON object, CSV
// otherwise). maxBytes > 0 bounds the stream — measured after
// decompression, so compression cannot smuggle an oversized trace
// past the cap.
func decodeInto(r io.Reader, maxBytes int64, emit func(tracesim.Access)) error {
	if maxBytes > 0 {
		r = &limitReader{r: r, n: maxBytes + 1}
	}
	br := bufio.NewReaderSize(r, 64<<10)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("tracestore: bad gzip stream: %w", err)
		}
		defer zr.Close()
		inner := io.Reader(zr)
		if maxBytes > 0 {
			inner = &limitReader{r: zr, n: maxBytes + 1}
		}
		br = bufio.NewReaderSize(inner, 64<<10)
	}
	if head, err := br.Peek(len(magic)); err == nil && bytes.Equal(head, []byte(magic)) {
		return decodeBinaryInto(br, emit)
	}
	return decodeTextInto(br, emit)
}

// decodeBinaryInto re-decodes a binary-format upload. The header's
// summary is ignored — the encoder recomputes it — so a tampered
// header cannot desynchronize metadata from content.
func decodeBinaryInto(br *bufio.Reader, emit func(tracesim.Access)) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("tracestore: truncated header: %w", err)
	}
	if _, err := decodeHeader(hdr[:]); err != nil {
		return err
	}
	dec := NewDecoder(br)
	for {
		b, ok := dec.NextBlock()
		if !ok {
			break
		}
		for _, a := range b {
			emit(a)
		}
	}
	return dec.Err()
}

// decodeTextInto parses NDJSON or CSV line streams. The dialect is
// decided by the first data line and held for the whole stream. Lines
// are consumed as byte slices straight from the scanner (no per-line
// string), parsed by the fast tier when possible and by the reference
// tier otherwise; parse errors carry the dialect and the 1-based line
// number.
func decodeTextInto(br *bufio.Reader, emit func(tracesim.Access)) error {
	lineNo := 0
	ndjson := false
	decided := false
	format := "csv"
	var spill []byte // lines longer than the reader's buffer
	for {
		// ReadSlice returns a view into the reader's buffer — no
		// per-line copy, unlike bufio.Scanner's shift-and-refill.
		raw, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			spill = append(spill[:0], raw...)
			for rerr == bufio.ErrBufferFull && len(spill) <= maxLineBytes {
				raw, rerr = br.ReadSlice('\n')
				spill = append(spill, raw...)
			}
			if len(spill) > maxLineBytes {
				return fmt.Errorf("tracestore: %s line %d: line exceeds %d bytes", format, lineNo+1, maxLineBytes)
			}
			raw = spill
		}
		if rerr != nil && rerr != io.EOF {
			return fmt.Errorf("tracestore: %s line %d: %w", format, lineNo+1, rerr)
		}
		if len(raw) == 0 {
			if rerr == io.EOF {
				return nil
			}
			continue
		}
		atEOF := rerr == io.EOF
		lineNo++
		line := bytes.TrimSpace(raw)
		if len(line) == 0 || line[0] == '#' {
			if atEOF {
				return nil
			}
			continue
		}
		if !decided {
			ndjson = line[0] == '{'
			decided = true
			if ndjson {
				format = "ndjson"
			} else if isCSVHeader(string(line)) {
				if atEOF {
					return nil
				}
				continue
			}
		}
		var (
			a  tracesim.Access
			ok bool
		)
		if ndjson {
			a, ok = parseNDJSONFast(line)
		} else {
			a, ok = parseCSVFast(line)
		}
		if !ok {
			var err error
			if ndjson {
				a, err = parseNDJSONLine(string(line))
			} else {
				a, err = parseCSVLine(string(line))
			}
			if err != nil {
				return fmt.Errorf("tracestore: %s line %d: %w", format, lineNo, err)
			}
		}
		emit(a)
		if atEOF {
			return nil
		}
	}
}

// --- fast tier -------------------------------------------------------
//
// The fast parsers return ok=false for ANY input they cannot prove
// they parse identically to the reference tier — not just malformed
// input. Returning false is always safe (the line re-parses through
// the reference path); returning a wrong value never is. They
// therefore reject, conservatively: escape sequences, non-ASCII
// bytes, octal/binary/underscore numerals, leading-zero decimals
// (JSON rejects them; CSV's strconv base-0 reads them as octal), and
// any JSON shape beyond a flat addr/kind object.

// asciiSpace reports a byte the reference tier's TrimSpace would also
// trim. Multi-byte (Unicode) whitespace never reaches here: any byte
// >= 0x80 makes the fast tier bail instead.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// parseDecFast parses a non-empty all-digit decimal with no leading
// zero (except "0" itself), rejecting overflow.
func parseDecFast(b []byte) (uint64, bool) {
	if len(b) == 0 || (len(b) > 1 && b[0] == '0') {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseAddrFast parses the common address spellings: plain decimal or
// 0x-prefixed hex. Octal, binary, underscores, and signs fall back.
func parseAddrFast(b []byte) (uint64, bool) {
	if len(b) > 2 && b[0] == '0' && (b[1] == 'x' || b[1] == 'X') {
		h := b[2:]
		if len(h) > 16 {
			return 0, false
		}
		var v uint64
		for _, c := range h {
			var d uint64
			switch {
			case c >= '0' && c <= '9':
				d = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint64(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint64(c-'A') + 10
			default:
				return 0, false
			}
			v = v<<4 | d
		}
		return v, true
	}
	return parseDecFast(b)
}

// eqFoldASCII compares b to the all-lowercase token t ignoring ASCII
// case. Bytes >= 0x80 never match (Unicode case folding differs).
func eqFoldASCII(b []byte, t string) bool {
	if len(b) != len(t) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != t[i] {
			return false
		}
	}
	return true
}

// parseKindFast matches the exact kind spellings the reference tier
// accepts, after trimming ASCII whitespace. Anything else — including
// any non-ASCII byte — falls back.
func parseKindFast(b []byte) (cache.AccessKind, bool) {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	for _, c := range b {
		if c >= 0x80 {
			return cache.Read, false
		}
	}
	switch len(b) {
	case 0:
		return cache.Read, true
	case 1:
		switch b[0] {
		case 'r', 'R', '0':
			return cache.Read, true
		case 'w', 'W', '1':
			return cache.Write, true
		}
	default:
		switch {
		case eqFoldASCII(b, "read"), eqFoldASCII(b, "load"):
			return cache.Read, true
		case eqFoldASCII(b, "write"), eqFoldASCII(b, "store"):
			return cache.Write, true
		}
	}
	return cache.Read, false
}

// parseNDJSONFast parses a flat {"addr": ..., "kind": "..."} object:
// addr/kind keys in any order (duplicates: last wins, as
// encoding/json does), number or string addresses, no escapes, no
// other keys, nothing after the closing brace. Any deviation falls
// back to encoding/json.
//
//simd:hotpath — runs once per ingested NDJSON line.
func parseNDJSONFast(b []byte) (tracesim.Access, bool) {
	// Template fast path: the canonical emitter spelling
	// {"addr": N} / {"addr": N, "kind": "R"}. Anything else takes the
	// general scan below, which handles all key orders and spellings.
	if len(b) > 10 && b[0] == '{' && string(b[1:9]) == `"addr": ` {
		i := 9
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if v, ok := parseDecFast(b[9:i]); ok {
			rest := b[i:]
			if len(rest) == 1 && rest[0] == '}' {
				return tracesim.Access{Addr: v}, true
			}
			if len(rest) == 14 && string(rest[:11]) == `, "kind": "` && rest[12] == '"' && rest[13] == '}' {
				switch rest[11] {
				case 'R', 'r', '0':
					return tracesim.Access{Addr: v}, true
				case 'W', 'w', '1':
					return tracesim.Access{Addr: v, Kind: cache.Write}, true
				}
			}
		}
	}
	i, n := 0, len(b)
	skip := func() {
		for i < n && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
			i++
		}
	}
	skip()
	if i >= n || b[i] != '{' {
		return tracesim.Access{}, false
	}
	i++
	var a tracesim.Access
	seenAddr := false
	for {
		skip()
		if i >= n || b[i] != '"' {
			return tracesim.Access{}, false
		}
		i++
		ks := i
		for i < n && b[i] != '"' && b[i] != '\\' && b[i] < 0x80 {
			i++
		}
		if i >= n || b[i] != '"' {
			return tracesim.Access{}, false
		}
		key := b[ks:i]
		i++
		skip()
		if i >= n || b[i] != ':' {
			return tracesim.Access{}, false
		}
		i++
		skip()
		switch {
		case bytes.Equal(key, []byte("addr")):
			if i < n && b[i] == '"' {
				i++
				vs := i
				for i < n && b[i] != '"' && b[i] != '\\' && b[i] < 0x80 {
					i++
				}
				if i >= n || b[i] != '"' {
					return tracesim.Access{}, false
				}
				v, ok := parseAddrFast(b[vs:i])
				if !ok {
					return tracesim.Access{}, false
				}
				a.Addr = v
				i++
			} else {
				vs := i
				for i < n && b[i] >= '0' && b[i] <= '9' {
					i++
				}
				v, ok := parseDecFast(b[vs:i])
				if !ok {
					return tracesim.Access{}, false
				}
				a.Addr = v
			}
			seenAddr = true
		case bytes.Equal(key, []byte("kind")):
			if i >= n || b[i] != '"' {
				return tracesim.Access{}, false
			}
			i++
			vs := i
			for i < n && b[i] != '"' && b[i] != '\\' && b[i] < 0x80 {
				i++
			}
			if i >= n || b[i] != '"' {
				return tracesim.Access{}, false
			}
			k, ok := parseKindFast(b[vs:i])
			if !ok {
				return tracesim.Access{}, false
			}
			a.Kind = k
			i++
		default:
			return tracesim.Access{}, false
		}
		skip()
		if i < n && b[i] == ',' {
			i++
			continue
		}
		if i < n && b[i] == '}' {
			i++
			break
		}
		return tracesim.Access{}, false
	}
	skip()
	if i != n || !seenAddr {
		return tracesim.Access{}, false
	}
	return a, true
}

// parseCSVFast parses "addr[,kind]" with ASCII-only content. More
// than one comma, non-ASCII bytes, or unusual numerals fall back.
//
//simd:hotpath — runs once per ingested CSV line.
func parseCSVFast(line []byte) (tracesim.Access, bool) {
	addrF := line
	var kindF []byte
	if i := bytes.IndexByte(line, ','); i >= 0 {
		addrF, kindF = line[:i], line[i+1:]
	}
	for len(addrF) > 0 && asciiSpace(addrF[0]) {
		addrF = addrF[1:]
	}
	for len(addrF) > 0 && asciiSpace(addrF[len(addrF)-1]) {
		addrF = addrF[:len(addrF)-1]
	}
	for _, c := range addrF {
		if c >= 0x80 {
			return tracesim.Access{}, false
		}
	}
	addr, ok := parseAddrFast(addrF)
	if !ok {
		return tracesim.Access{}, false
	}
	kind, ok := parseKindFast(kindF)
	if !ok {
		return tracesim.Access{}, false
	}
	return tracesim.Access{Addr: addr, Kind: kind}, true
}

// isCSVHeader recognizes a leading "addr,kind"-style header row.
func isCSVHeader(line string) bool {
	first := line
	if i := strings.IndexByte(line, ','); i >= 0 {
		first = line[:i]
	}
	_, err := parseAddr(first)
	return err != nil
}

// parseNDJSONLine parses {"addr": N|"0x..", "kind": "R"|"W"}.
func parseNDJSONLine(line string) (tracesim.Access, error) {
	var rec struct {
		Addr json.RawMessage `json:"addr"`
		Kind string          `json:"kind"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		return tracesim.Access{}, fmt.Errorf("bad JSON: %w", err)
	}
	if len(rec.Addr) == 0 {
		return tracesim.Access{}, fmt.Errorf("missing addr field")
	}
	raw := strings.Trim(string(rec.Addr), `"`)
	addr, err := parseAddr(raw)
	if err != nil {
		return tracesim.Access{}, err
	}
	kind, err := parseKind(rec.Kind)
	if err != nil {
		return tracesim.Access{}, err
	}
	return tracesim.Access{Addr: addr, Kind: kind}, nil
}

// parseCSVLine parses "addr[,kind]".
func parseCSVLine(line string) (tracesim.Access, error) {
	addrField, kindField := line, ""
	if i := strings.IndexByte(line, ','); i >= 0 {
		addrField, kindField = line[:i], line[i+1:]
	}
	addr, err := parseAddr(addrField)
	if err != nil {
		return tracesim.Access{}, err
	}
	kind, err := parseKind(kindField)
	if err != nil {
		return tracesim.Access{}, err
	}
	return tracesim.Access{Addr: addr, Kind: kind}, nil
}
