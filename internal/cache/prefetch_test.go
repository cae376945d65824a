package cache

import (
	"slices"
	"testing"
)

// naivePrefetcher is the reference StreamPrefetcher is pinned to: the
// same stream table, but each entry remembers the tick of its last
// touch and a full table evicts the entry with the smallest tick by a
// scan over all of them.
type naivePrefetcher struct {
	depth    int
	next     []uint64
	lru      []uint64
	frontier []uint64
	hits     []uint32
	n        int
	tick     uint64
}

func newNaivePrefetcher(streams, depth int) *naivePrefetcher {
	return &naivePrefetcher{
		depth:    depth,
		next:     make([]uint64, streams),
		lru:      make([]uint64, streams),
		frontier: make([]uint64, streams),
		hits:     make([]uint32, streams),
	}
}

func (p *naivePrefetcher) observe(lineAddr uint64) []uint64 {
	p.tick++
	for i := 0; i < p.n; i++ {
		if p.next[i] != lineAddr {
			continue
		}
		p.next[i] = lineAddr + 1
		p.hits[i]++
		p.lru[i] = p.tick
		if p.hits[i] < 2 {
			return nil
		}
		start := max(lineAddr+1, p.frontier[i]+1)
		end := lineAddr + uint64(p.depth)
		if start > end {
			return nil
		}
		var out []uint64
		for l := start; l <= end; l++ {
			out = append(out, l)
		}
		p.frontier[i] = end
		return out
	}
	v := p.n
	if v < len(p.next) {
		p.n++
	} else {
		v = 0
		for i, tk := range p.lru {
			if tk < p.lru[v] {
				v = i
			}
		}
	}
	p.next[v] = lineAddr + 1
	p.lru[v] = p.tick
	p.frontier[v] = 0
	p.hits[v] = 1
	return nil
}

// FuzzStreamPrefetcher decodes arbitrary bytes into a stream-table
// size (1-20), a lookahead depth (1-10) and a line sequence, and
// requires StreamPrefetcher to issue exactly the lines the naive
// tick-scan reference issues, call for call. Byte 0 picks the table
// size, byte 1 the depth; each following byte is one step of one of 32
// far-apart streams: the low 5 bits pick the stream, the high 3 bits
// how many lines it advances (1 continues it, 0 repeats its line,
// more skips ahead). Seeds built here interleave 24 long sequential
// streams through tables of 1, 7 and 20 entries, so the normal test run
// already exercises every victim choice.
func FuzzStreamPrefetcher(f *testing.F) {
	f.Add([]byte{3, 7, 0, 1, 2, 32, 33, 34, 64, 65, 66})
	f.Add([]byte{0, 0, 0, 32, 0, 32, 64})
	for _, streams := range []byte{0, 6, 19} {
		seed := []byte{streams, 7}
		x := uint32(1)
		for len(seed) < 4000 {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			seed = append(seed, 1<<5|byte(x%24))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		streams, depth := int(data[0])%20+1, int(data[1])%10+1
		got, want := NewStreamPrefetcher(streams, depth, 64), newNaivePrefetcher(streams, depth)
		var pos [32]uint64
		var issued, wantIssued int64
		for i, b := range data[2:] {
			s := b & 31
			pos[s] += uint64(b >> 5)
			line := uint64(s)<<32 + pos[s]
			g, w := got.ObserveLines(line), want.observe(line)
			if !slices.Equal(g, w) {
				t.Fatalf("step %d (line %#x, streams %d, depth %d): issued %v, want %v", i, line, streams, depth, g, w)
			}
			issued += int64(len(g))
			wantIssued += int64(len(w))
		}
		if issued != wantIssued {
			t.Fatalf("issued %d prefetches, want %d", issued, wantIssued)
		}
	})
}

// Observe is ObserveLines over byte addresses, the form the unit
// tests below read most easily.
func (p *StreamPrefetcher) Observe(addr uint64) []uint64 {
	out := p.ObserveLines(addr / uint64(p.lineSize))
	for i, line := range out {
		out[i] = line * uint64(p.lineSize)
	}
	return out
}

func TestPrefetcherConfirmsStream(t *testing.T) {
	p := NewStreamPrefetcher(4, 4, 64)
	first := p.Observe(0)
	if first != nil {
		t.Fatal("first access should not prefetch")
	}
	got := p.Observe(64)
	if len(got) != 4 {
		t.Fatalf("confirmed stream issued %d prefetches, want 4", len(got))
	}
	if got[0] != 2*64 || got[3] != 5*64 {
		t.Fatalf("prefetch window = %v", got)
	}
	if issued := len(first) + len(got); issued != 4 {
		t.Fatalf("issued = %d", issued)
	}
}

func TestPrefetcherIgnoresRandom(t *testing.T) {
	p := NewStreamPrefetcher(4, 4, 64)
	addrs := []uint64{0, 640, 128000, 42 * 64, 7 * 64, 99 * 64}
	for _, a := range addrs {
		if got := p.Observe(a); got != nil {
			t.Fatalf("random access %#x triggered prefetch", a)
		}
	}
}

func TestPrefetcherTracksMultipleStreams(t *testing.T) {
	p := NewStreamPrefetcher(2, 2, 64)
	base1, base2 := uint64(0), uint64(1<<20)
	p.Observe(base1)
	p.Observe(base2)
	if got := p.Observe(base1 + 64); len(got) != 2 {
		t.Fatal("stream 1 not tracked")
	}
	if got := p.Observe(base2 + 64); len(got) != 2 {
		t.Fatal("stream 2 not tracked")
	}
}

func TestPrefetcherLRUReplacement(t *testing.T) {
	p := NewStreamPrefetcher(1, 2, 64)
	p.Observe(0)       // tracked
	p.Observe(1 << 20) // replaces (single entry)
	if got := p.Observe(64); got != nil {
		t.Fatal("evicted stream continued")
	}
}
