// Package cache implements the cache hierarchy of the simulated KNL:
// generic set-associative SRAM caches (L1D, per-tile L2), a stream
// prefetcher, and the MCDRAM direct-mapped memory-side cache that
// backs the paper's "cache mode".
//
// Two layers coexist deliberately:
//
//   - a functional, trace-driven layer (this file and mcdram.go) that
//     counts real hits and misses for replayed access streams, and
//   - an analytic layer (hitmodel.go) used by the timing engine at
//     paper-scale problem sizes where replaying every access would be
//     infeasible.
//
// Tests cross-validate the two layers on overlapping configurations.
//
// The functional layer is the hot path of trace replay, so SetAssoc is
// organised for speed: geometry is restricted to power-of-two line and
// set counts so set/tag extraction is shift/mask (no div or mod), tags
// are stored line-granular in a contiguous slice separate from
// replacement state (a tag probe touches one or two cache lines of
// host memory), the tag scan is unrolled for the common 4/8/16-way
// geometries, and an MRU memo short-circuits repeated references to
// the line touched by the immediately preceding operation.
//
// For associativities up to 16 the LRU order of a whole set is packed
// into one uint64 — a stack of 4-bit way indices, most-recent in the
// low nibble — so picking a victim is a single shift instead of a
// per-way recency scan, a hit's recency update is a handful of
// branch-free bit operations, and the replacement state of a 16-way
// 1024-set L2 is 8 KB of host memory instead of 128 KB of per-way
// ticks. Dirty state is one bitmask per set for the same reason.
// Every simulated chip is 8-way (L1) and 16-way (L2), so wider
// geometries are rejected rather than given a slower second path.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// AccessKind distinguishes reads from writes for dirty tracking.
type AccessKind int

const (
	// Read is a demand load.
	Read AccessKind = iota
	// Write is a store (write-allocate, write-back policy).
	Write
)

// Stats counts cache events.
type Stats struct {
	Hits, Misses    int64
	Evictions       int64
	DirtyWritebacks int64
}

// HitRatio returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// maxWays is the widest associativity whose LRU order fits the packed
// nibble-stack representation (16 four-bit way indices).
const maxWays = 16

// nibLo has the low bit of every nibble set; multiplying by it
// broadcasts a way index into all 16 nibble lanes.
const nibLo = 0x1111111111111111

// SetAssoc is a set-associative write-back, write-allocate cache with
// LRU replacement.
//
// State is kept struct-of-arrays: tags (stored as tag+1 with 0 marking
// an invalid way) in one slice so the hit scan is a contiguous
// eight-byte compare loop. Replacement state is the packed per-set
// LRU stack and dirty mask.
type SetAssoc struct {
	name     string
	lineSize units.Bytes
	sets     int
	ways     int

	lineShift uint   // log2(lineSize)
	setMask   uint64 // sets-1
	setShift  uint   // log2(sets)

	tags []uint64 // sets*ways; stored tag+1, 0 = invalid
	vcnt []int32  // per set: number of valid ways

	// Packed replacement state. stack holds the set's way indices in
	// recency order, MRU in the low nibble; dmask holds one dirty bit
	// per way. Valid ways always occupy the low way indices [0, vcnt)
	// — installs fill way vcnt first — so the stack's high nibbles
	// stay zero until the set is full.
	stack     []uint64
	dmask     []uint16
	lruShift  uint   // 4*(ways-1): shift that exposes the LRU nibble
	stackMask uint64 // low 4*ways bits

	// MRU memo: the set/way of the line touched by the immediately
	// preceding hit/install, or mruSet < 0. Lets consecutive
	// references to one line skip the set scan entirely.
	mruSet  int
	mruWay  int
	mruLine uint64

	stats Stats
}

// NewSetAssoc builds a cache of the given capacity, associativity and
// line size. Capacity must be an exact multiple of ways*lineSize, the
// line size a power of two, the resulting set count a power of two,
// and the associativity at most 16.
func NewSetAssoc(name string, capacity units.Bytes, ways int, lineSize units.Bytes) (*SetAssoc, error) {
	if ways > maxWays {
		return nil, fmt.Errorf("cache: %d ways exceeds the %d-way maximum", ways, maxWays)
	}
	if capacity <= 0 || ways <= 0 || lineSize <= 0 || capacity%lineSize != 0 {
		return nil, fmt.Errorf("cache: bad geometry cap=%v ways=%d line=%v", capacity, ways, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %v must be a power of two", lineSize)
	}
	lines := int64(capacity / lineSize)
	if lines%int64(ways) != 0 || lines == 0 {
		return nil, fmt.Errorf("cache: capacity %v not divisible into %d ways of %v lines", capacity, ways, lineSize)
	}
	sets := int(lines) / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return &SetAssoc{
		name:      name,
		lineSize:  lineSize,
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros64(uint64(lineSize))),
		setMask:   uint64(sets - 1),
		setShift:  uint(bits.TrailingZeros64(uint64(sets))),
		tags:      make([]uint64, int(lines)),
		vcnt:      make([]int32, sets),
		stack:     make([]uint64, sets),
		dmask:     make([]uint16, sets),
		lruShift:  uint(4 * (ways - 1)),
		stackMask: ^uint64(0) >> (64 - 4*uint(ways)),
		mruSet:    -1,
	}, nil
}

// Stats returns a copy of the event counters.
func (c *SetAssoc) Stats() Stats { return c.stats }

// ResetStats clears the event counters but keeps contents.
func (c *SetAssoc) ResetStats() { c.stats = Stats{} }

// findWay returns the way offset of stored tag stag in the set at
// base, or -1. Unrolled for the common associativities: the slice is
// contiguous, so each probe is a handful of compares in one or two
// host cache lines.
func (c *SetAssoc) findWay(base int, stag uint64) int {
	switch c.ways {
	case 4:
		t := (*[4]uint64)(c.tags[base : base+4])
		if t[0] == stag {
			return 0
		}
		if t[1] == stag {
			return 1
		}
		if t[2] == stag {
			return 2
		}
		if t[3] == stag {
			return 3
		}
		return -1
	case 8:
		t := (*[8]uint64)(c.tags[base : base+8])
		if t[0] == stag {
			return 0
		}
		if t[1] == stag {
			return 1
		}
		if t[2] == stag {
			return 2
		}
		if t[3] == stag {
			return 3
		}
		if t[4] == stag {
			return 4
		}
		if t[5] == stag {
			return 5
		}
		if t[6] == stag {
			return 6
		}
		if t[7] == stag {
			return 7
		}
		return -1
	case 16:
		t := (*[16]uint64)(c.tags[base : base+16])
		for i := 0; i < 16; i += 4 {
			if t[i] == stag {
				return i
			}
			if t[i+1] == stag {
				return i + 1
			}
			if t[i+2] == stag {
				return i + 2
			}
			if t[i+3] == stag {
				return i + 3
			}
		}
		return -1
	}
	for i, t := range c.tags[base : base+c.ways] {
		if t == stag {
			return i
		}
	}
	return -1
}

// findWayMRU is findWay with a one-compare fast path: it probes the
// set's MRU way (the bottom nibble of the packed LRU stack) before
// scanning. Prefetch installs and repeat touches leave the interesting
// way at MRU, so sequential replay resolves most hits in one compare
// instead of a scan across the whole set. Tags are unique within a
// set, so the probe and the scan can never disagree.
//
//simd:hotpath — runs once per simulated access.
func (c *SetAssoc) findWayMRU(set, base int, stag uint64) int {
	if w := int(c.stack[set] & 15); c.tags[base+w] == stag {
		return w
	}
	return c.findWay(base, stag)
}

// stackTouch moves resident way w to the top (MRU nibble) of set's
// packed LRU stack, branch-free. The xor broadcast makes w's nibble
// the lowest zero nibble of x, the borrow trick flags it, and the
// shifted recombination closes the gap.
func (c *SetAssoc) stackTouch(set, w int) {
	s := c.stack[set]
	x := s ^ (uint64(w) * nibLo)
	y := (x - nibLo) &^ x & 0x8888888888888888
	p := uint(bits.TrailingZeros64(y)) &^ 3 // bit offset of w's nibble
	below := s & (uint64(1)<<p - 1)
	above := s &^ (uint64(1)<<(p+4) - 1)
	c.stack[set] = above | below<<4 | uint64(w)
}

// victimInstall picks the replacement way of a packed set and pushes
// it to the top of the stack: the next unused way index while the set
// is filling (valid ways always occupy [0, vcnt)), else the LRU
// nibble. O(1) either way — no per-way scan.
func (c *SetAssoc) victimInstall(set int) int {
	if n := c.vcnt[set]; int(n) < c.ways {
		c.vcnt[set] = n + 1
		c.stack[set] = c.stack[set]<<4 | uint64(n)
		return int(n)
	}
	s := c.stack[set]
	w := int(s >> c.lruShift & 15)
	c.stack[set] = (s<<4 | uint64(w)) & c.stackMask
	return w
}

// AccessLine performs one access by line address (byte address divided
// by the line size). It reports whether it hit and, when a dirty
// victim had to be written back, the victim's line address with
// wb=true. This is the trace-replay fast path: no byte/line
// conversion, shift/mask indexing, MRU short-circuit, one tag scan
// per operation.
func (c *SetAssoc) AccessLine(lineAddr uint64, kind AccessKind) (hit bool, wbLine uint64, wb bool) {
	if c.mruSet >= 0 && lineAddr == c.mruLine {
		// Coalesced repeat: the line is already the MRU of its set, so
		// the stack needs no update.
		if kind == Write {
			c.dmask[c.mruSet] |= 1 << uint(c.mruWay)
		}
		c.stats.Hits++
		return true, 0, false
	}
	set := int(lineAddr & c.setMask)
	stag := (lineAddr >> c.setShift) + 1
	base := set * c.ways
	if way := c.findWayMRU(set, base, stag); way >= 0 {
		c.stackTouch(set, way)
		if kind == Write {
			c.dmask[set] |= 1 << uint(way)
		}
		c.stats.Hits++
		c.mruSet, c.mruWay, c.mruLine = set, way, lineAddr
		return true, 0, false
	}
	c.stats.Misses++
	way := c.victimInstall(set)
	idx := base + way
	bit := uint16(1) << uint(way)
	if c.tags[idx] != 0 {
		c.stats.Evictions++
		if c.dmask[set]&bit != 0 {
			c.stats.DirtyWritebacks++
			wbLine = (c.tags[idx]-1)<<c.setShift | uint64(set)
			wb = true
		}
	}
	c.tags[idx] = stag
	if kind == Write {
		c.dmask[set] |= bit
	} else {
		c.dmask[set] &^= bit
	}
	c.mruSet, c.mruWay, c.mruLine = set, way, lineAddr
	return false, wbLine, wb
}

// TouchMRU re-touches the line affected by the immediately preceding
// AccessLine or InstallLineIfAbsent on this cache, exactly as a repeated hit
// on that line would (recency, dirty, hit count). Callers must
// guarantee no other operation intervened; the trace simulator uses it
// to coalesce consecutive references to one line. The line is by
// definition already its set's MRU, so only dirty state and the hit
// counter move.
func (c *SetAssoc) TouchMRU(kind AccessKind) {
	if kind == Write {
		c.dmask[c.mruSet] |= 1 << uint(c.mruWay)
	}
	c.stats.Hits++
}

// InstallLineIfAbsent inserts a line (by line address) without
// counting a demand miss (prefetch fill). installed is true when the
// line was absent and has been installed, false when it was already
// resident (left untouched); writeback info is as for AccessLine. The
// combined check-and-install costs one tag scan, where a separate
// residency probe and install would cost two.
func (c *SetAssoc) InstallLineIfAbsent(lineAddr uint64) (installed bool, wbLine uint64, wb bool) {
	if c.mruSet >= 0 && lineAddr == c.mruLine {
		return false, 0, false
	}
	set := int(lineAddr & c.setMask)
	stag := (lineAddr >> c.setShift) + 1
	base := set * c.ways
	if c.findWayMRU(set, base, stag) >= 0 {
		return false, 0, false
	}
	way := c.victimInstall(set)
	idx := base + way
	bit := uint16(1) << uint(way)
	if c.tags[idx] != 0 {
		c.stats.Evictions++
		if c.dmask[set]&bit != 0 {
			c.stats.DirtyWritebacks++
			wbLine = (c.tags[idx]-1)<<c.setShift | uint64(set)
			wb = true
		}
	}
	c.tags[idx] = stag
	c.dmask[set] &^= bit
	c.mruSet, c.mruWay, c.mruLine = set, way, lineAddr
	return true, wbLine, wb
}
