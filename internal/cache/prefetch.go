package cache

import (
	"repro/internal/units"
)

// StreamPrefetcher models the KNL L2 hardware prefetcher: it tracks up
// to Streams concurrent sequential streams and, once a stream is
// confirmed (two consecutive line addresses), keeps Depth lines of
// lookahead resident ahead of the demand pointer.
//
// Its effect in the analytic model is to raise sequential per-core
// memory-level parallelism far above what demand misses alone provide;
// the trace simulator uses this functional version.
//
// The stream table is stored column-wise: the match scan — run once
// per L1-missing access, one of the hottest loops in trace replay —
// touches only the compact next[] array (one cache line covers 8
// streams) instead of striding through an array of structs. Entries
// are allocated in index order and never invalidated, so "first free
// slot" is just a fill counter. Once the table is full, a new stream
// replaces the least-recently-touched one. Recency is a doubly linked
// list over the entries (older/newer index arrays with mru/lru heads)
// that starts out holding every entry in index order, lru first, so
// the victim is always the lru head: the next free slot while the
// table fills, the least-recently-touched stream after. Finding it and
// moving a touched entry to the front are both O(1).
type StreamPrefetcher struct {
	Streams int
	Depth   int

	lineSize units.Bytes
	next     []uint64 // per stream: the line address that continues it (lastLine+1)
	frontier []uint64 // per stream: highest line already issued (0 = none)
	hits     []uint32 // per stream: consecutive-line confirmations
	older    []int32  // per stream: the next less recently touched stream (-1 at the lru end)
	newer    []int32  // per stream: the next more recently touched stream (-1 at the mru end)
	mru, lru int32    // most and least recently touched streams
	n        int      // streams allocated so far (valid entries are [0, n))
	buf      []uint64 // reused result buffer (ObserveLines)
	issued   int64
}

// NewStreamPrefetcher builds a prefetcher with the given stream table
// size and lookahead depth.
func NewStreamPrefetcher(streams, depth int, lineSize units.Bytes) *StreamPrefetcher {
	p := &StreamPrefetcher{
		Streams:  streams,
		Depth:    depth,
		lineSize: lineSize,
		next:     make([]uint64, streams),
		frontier: make([]uint64, streams),
		hits:     make([]uint32, streams),
		older:    make([]int32, streams),
		newer:    make([]int32, streams),
		mru:      int32(streams - 1),
		buf:      make([]uint64, depth),
	}
	for i := range p.older {
		p.older[i], p.newer[i] = int32(i-1), int32(i+1)
	}
	p.newer[streams-1] = -1
	return p
}

// touch moves entry i to the most-recent end of the recency list.
func (p *StreamPrefetcher) touch(i int32) {
	if i == p.mru {
		return
	}
	// i is not the mru, so it has a newer neighbour.
	o, nw := p.older[i], p.newer[i]
	p.older[nw] = o
	if o >= 0 {
		p.newer[o] = nw
	} else {
		p.lru = nw
	}
	p.older[i], p.newer[i] = p.mru, -1
	p.newer[p.mru] = i
	p.mru = i
}

// ObserveLines feeds a demand line address to the prefetcher and
// returns the line addresses to prefetch (possibly none). The returned
// slice aliases an internal buffer and is only valid until the next
// call — the hot replay loop consumes it immediately, so no per-access
// allocation occurs.
//
//simd:hotpath — runs once per simulated access when prefetch is on.
func (p *StreamPrefetcher) ObserveLines(lineAddr uint64) []uint64 {
	// Find a stream this access continues.
	for i, nx := range p.next[:p.n] {
		if nx != lineAddr {
			continue
		}
		p.next[i] = lineAddr + 1
		p.hits[i]++
		p.touch(int32(i))
		if p.hits[i] < 2 {
			return nil
		}
		// Keep Depth lines of lookahead ahead of the demand
		// pointer, but issue each line only once per stream:
		// the frontier watermark turns steady-state coverage
		// into one new prefetch per demand line instead of
		// re-issuing the whole window.
		start := lineAddr + 1
		if f := p.frontier[i] + 1; f > start {
			start = f
		}
		end := lineAddr + uint64(p.Depth)
		if start > end {
			return nil
		}
		out := p.buf[:0]
		for l := start; l <= end; l++ {
			out = append(out, l)
		}
		p.frontier[i] = end
		p.issued += int64(len(out))
		return out
	}
	// Allocate a new tracking entry in the lru slot: a free one while
	// the table fills, else the least-recently-touched stream.
	v := p.lru
	p.touch(v)
	if p.n < len(p.next) {
		p.n++
	}
	p.next[v] = lineAddr + 1
	p.frontier[v] = 0
	p.hits[v] = 1
	return nil
}
