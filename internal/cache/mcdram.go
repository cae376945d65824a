package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// MemSideCache models MCDRAM in cache mode: a direct-mapped,
// write-back memory-side cache in front of DDR. The real hardware
// keeps tags in MCDRAM itself; every access therefore pays a tag
// check in MCDRAM, and a miss additionally pays the DDR access plus
// the line fill (and a writeback when the victim is dirty). The
// direct mapping is what produces the bandwidth cliff of Fig. 2 and
// the paper's repeated "higher conflict misses" remarks.
type MemSideCache struct {
	lineSize  units.Bytes
	lineShift uint
	sets      int64
	pow2      bool
	setMask   uint64 // sets-1, valid when pow2
	setShift  uint   // log2(sets), valid when pow2
	// fold means the dirty flag lives in bit 63 of the tag word, so
	// hit, miss and eviction all touch exactly one cache line of host
	// memory per access. Safe whenever sets >= 4: the stored tag+1 is
	// then at most 2^62, leaving the top bit free. The degenerate
	// sets < 4 geometries keep a separate bitset.
	fold  bool
	tags  []uint64 // tag+1, 0 = invalid; bit 63 = dirty when fold
	dirty []uint64 // bitset, used only when !fold
	stats Stats
}

// mcDirty flags a dirty line in the tag word when fold is enabled.
const mcDirty = uint64(1) << 63

// NewMemSideCache builds a direct-mapped memory-side cache. On the
// real 7210 capacity is 16 GiB; the trace simulator uses scaled-down
// capacities with identical geometry rules.
func NewMemSideCache(capacity units.Bytes, lineSize units.Bytes) (*MemSideCache, error) {
	if capacity <= 0 || lineSize <= 0 || capacity%lineSize != 0 {
		return nil, fmt.Errorf("cache: bad memory-side cache geometry cap=%v line=%v", capacity, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size %v must be a power of two", lineSize)
	}
	sets := int64(capacity / lineSize)
	m := &MemSideCache{
		lineSize:  lineSize,
		lineShift: uint(bits.TrailingZeros64(uint64(lineSize))),
		sets:      sets,
		fold:      sets >= 4,
		tags:      make([]uint64, sets),
	}
	if !m.fold {
		m.dirty = make([]uint64, (sets+63)/64)
	}
	if sets&(sets-1) == 0 {
		m.pow2 = true
		m.setMask = uint64(sets - 1)
		m.setShift = uint(bits.TrailingZeros64(uint64(sets)))
	}
	return m, nil
}

// Capacity returns the cache capacity.
func (m *MemSideCache) Capacity() units.Bytes { return units.Bytes(m.sets) * m.lineSize }

// Stats returns the event counters.
func (m *MemSideCache) Stats() Stats { return m.stats }

// ResetStats clears the counters but keeps contents.
func (m *MemSideCache) ResetStats() { m.stats = Stats{} }

func (m *MemSideCache) isDirty(set int64) bool {
	return m.dirty[set/64]&(1<<(uint(set)%64)) != 0
}

func (m *MemSideCache) setDirty(set int64, d bool) {
	if d {
		m.dirty[set/64] |= 1 << (uint(set) % 64)
	} else {
		m.dirty[set/64] &^= 1 << (uint(set) % 64)
	}
}

// AccessLine performs one access by line address. It reports whether
// it hit in MCDRAM and whether the (direct-mapped) victim required a
// DDR writeback. Power-of-two set counts (the common case) index by
// mask; others fall back to modulo.
func (m *MemSideCache) AccessLine(lineAddr uint64, kind AccessKind) (hit bool, wb bool) {
	var set int64
	var tag uint64
	if m.pow2 {
		set = int64(lineAddr & m.setMask)
		tag = lineAddr>>m.setShift + 1
	} else {
		set = int64(lineAddr % uint64(m.sets))
		tag = lineAddr/uint64(m.sets) + 1
	}
	if m.fold {
		t := m.tags[set]
		if t&^mcDirty == tag {
			m.stats.Hits++
			if kind == Write {
				m.tags[set] = t | mcDirty
			}
			return true, false
		}
		m.stats.Misses++
		if t != 0 {
			m.stats.Evictions++
			if t&mcDirty != 0 {
				m.stats.DirtyWritebacks++
				wb = true
			}
		}
		if kind == Write {
			tag |= mcDirty
		}
		m.tags[set] = tag
		return false, wb
	}
	if m.tags[set] == tag {
		m.stats.Hits++
		if kind == Write {
			m.setDirty(set, true)
		}
		return true, false
	}
	m.stats.Misses++
	if m.tags[set] != 0 {
		m.stats.Evictions++
		if m.isDirty(set) {
			m.stats.DirtyWritebacks++
			wb = true
		}
	}
	m.tags[set] = tag
	m.setDirty(set, kind == Write)
	return false, wb
}

// Access performs one access by physical byte address.
func (m *MemSideCache) Access(addr uint64, kind AccessKind) (hit bool, wb bool) {
	return m.AccessLine(addr>>m.lineShift, kind)
}

// Resident returns the number of valid lines (for occupancy tests).
func (m *MemSideCache) Resident() int64 {
	var n int64
	for _, t := range m.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
