// Package keys builds the canonical content-address preimages every
// cache, journal and result key in the repo hashes. The encoding is
// injective by construction — strings are length-prefixed, floats are
// serialized by bit pattern, integers are decimal between delimiters —
// so two distinct resolved values can never collide, and two
// spellings of the same resolved value (8GB vs 8192MB, 0.25 vs
// 2.5e-1) hash equal exactly when their resolved forms are equal.
//
// Every key in the tree must be built through a Builder. Hand-rolling
// a preimage with fmt.Sprintf or string concatenation is flagged by
// the canonicalkey analyzer (internal/lint): %v/%.6f spellings are
// not injective, and delimiter-joined user strings can collide with
// each other ("a|b" + "c" vs "a" + "b|c").
//
// The builder never calls fmt and appends into one reusable buffer,
// so key construction costs one allocation plus the hash.
package keys

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
)

// Builder accumulates the canonical byte encoding of one compound
// key. Fields append as '|' tag '=' value, with self-delimiting value
// encodings; the namespace leads the preimage so key families
// (point, advise, cluster, replay, result, ...) can never alias one
// another even when their fields agree.
//
// Tags must be short literal names without '|', '=' or ':' — they are
// part of the canonical format, not data. Values may be anything.
type Builder struct {
	buf []byte
}

// New starts a key in the given namespace.
func New(namespace string) *Builder {
	b := &Builder{buf: make([]byte, 0, 160)}
	b.lpstr(namespace)
	return b
}

// lpstr appends a length-prefixed string: <len>:<bytes>. The prefix
// makes the value self-delimiting, so embedded delimiters in
// user-supplied strings cannot forge field boundaries.
func (b *Builder) lpstr(s string) {
	b.buf = strconv.AppendInt(b.buf, int64(len(s)), 10)
	b.buf = append(b.buf, ':')
	b.buf = append(b.buf, s...)
}

func (b *Builder) tag(tag string) {
	b.buf = append(b.buf, '|')
	b.buf = append(b.buf, tag...)
	b.buf = append(b.buf, '=')
}

// Str appends a length-prefixed string field.
func (b *Builder) Str(tag, v string) *Builder {
	b.tag(tag)
	b.lpstr(v)
	return b
}

// Int appends a decimal integer field.
func (b *Builder) Int(tag string, v int64) *Builder {
	b.tag(tag)
	b.buf = strconv.AppendInt(b.buf, v, 10)
	return b
}

// Float appends a float64 by bit pattern — fixed-width 16-hex —
// injective for every distinct float64, unlike any %f/%g rendering.
func (b *Builder) Float(tag string, v float64) *Builder {
	b.tag(tag)
	bits := math.Float64bits(v)
	var hexBuf [16]byte
	for i := 15; i >= 0; i-- {
		hexBuf[i] = "0123456789abcdef"[bits&0xf]
		bits >>= 4
	}
	b.buf = append(b.buf, hexBuf[:]...)
	return b
}

// Bool appends a boolean field.
func (b *Builder) Bool(tag string, v bool) *Builder {
	b.tag(tag)
	if v {
		b.buf = append(b.buf, 't')
	} else {
		b.buf = append(b.buf, 'f')
	}
	return b
}

// String returns the canonical preimage accumulated so far — the
// debugging and test view of what will be hashed.
func (b *Builder) String() string { return string(b.buf) }

// Sum returns the key: lowercase hex SHA-256 of the preimage.
func (b *Builder) Sum() string {
	sum := sha256.Sum256(b.buf)
	return hex.EncodeToString(sum[:])
}
