package keys

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestPreimageShape(t *testing.T) {
	b := New("point").Str("w", "stream").Int("k", 2).Float("f", 0.25).Bool("pf", true)
	got := b.String()
	want := "5:point|w=6:stream|k=2|f=3fd0000000000000|pf=t"
	if got != want {
		t.Fatalf("preimage = %q, want %q", got, want)
	}
	if len(b.Sum()) != 64 {
		t.Fatalf("sum length = %d, want 64 hex chars", len(b.Sum()))
	}
}

// TestInjective pins the collision classes the builder exists to
// close: delimiter forgery in adjacent strings, float spellings, and
// namespace aliasing.
func TestInjective(t *testing.T) {
	pairs := [][2]*Builder{
		// "a|b"+"c" must not collide with "a"+"b|c".
		{New("x").Str("a", "a|b").Str("b", "c"), New("x").Str("a", "a").Str("b", "b|c")},
		// Length-prefix boundary: "ab"+"" vs "a"+"b".
		{New("x").Str("a", "ab").Str("b", ""), New("x").Str("a", "a").Str("b", "b")},
		// Distinct floats that %.6f would collapse.
		{New("x").Float("f", 0.2500001), New("x").Float("f", 0.25000011)},
		// Same fields, different namespace.
		{New("advise").Str("w", "gups"), New("cluster").Str("w", "gups")},
		// Signed vs magnitude.
		{New("x").Int("n", -1), New("x").Uint("n", 1)},
	}
	for i, p := range pairs {
		if p[0].Sum() == p[1].Sum() {
			t.Errorf("pair %d: %q and %q collide", i, p[0].String(), p[1].String())
		}
	}
}

// TestSpellingInsensitive pins the other half of the contract: equal
// resolved values hash equal regardless of how callers reached them.
func TestSpellingInsensitive(t *testing.T) {
	a := New("advise").Str("w", "gups").Int("b", 8<<30).Float("f", 0.25)
	b := New("advise").Str("w", "gups").Int("b", 8192<<20).Float("f", 1.0/4.0)
	if a.Sum() != b.Sum() {
		t.Fatalf("equal resolved keys differ: %q vs %q", a.String(), b.String())
	}
}

func TestFloatBitPattern(t *testing.T) {
	got := New("x").Float("f", 1.0).String()
	if !strings.HasSuffix(got, "|f=3ff0000000000000") {
		t.Fatalf("Float(1.0) preimage = %q, want 3ff0000000000000 suffix", got)
	}
	neg := New("x").Float("f", math.Copysign(0, -1)).String()
	pos := New("x").Float("f", 0.0).String()
	if neg == pos {
		t.Fatalf("-0.0 and +0.0 must encode distinctly (bit pattern): %q", neg)
	}
}

// Uint appends a decimal unsigned integer field.
func (b *Builder) Uint(tag string, v uint64) *Builder {
	b.tag(tag)
	b.buf = strconv.AppendUint(b.buf, v, 10)
	return b
}
