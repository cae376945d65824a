package cache

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/knl"
	"repro/internal/units"
)

func TestMemSideCacheValidation(t *testing.T) {
	if _, err := NewMemSideCache(0, 64); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewMemSideCache(100, 64); err == nil {
		t.Error("non-multiple capacity accepted")
	}
	m, err := NewMemSideCache(1*units.MiB, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() != units.MiB {
		t.Fatalf("capacity = %v", m.Capacity())
	}
}

func TestMemSideCacheDirectMappedConflict(t *testing.T) {
	m, _ := NewMemSideCache(4*64, 64) // 4 sets
	// Two addresses 4 lines apart conflict in a direct-mapped cache.
	if hit, _ := m.Access(0, Read); hit {
		t.Fatal("cold hit")
	}
	if hit, _ := m.Access(0, Read); !hit {
		t.Fatal("warm miss")
	}
	if hit, _ := m.Access(4*64, Read); hit {
		t.Fatal("conflicting address hit")
	}
	// Original line was evicted by the conflict.
	if hit, _ := m.Access(0, Read); hit {
		t.Fatal("evicted line still resident")
	}
	if ev := m.Stats().Evictions; ev != 2 {
		t.Fatalf("evictions = %d, want 2", ev)
	}
}

func TestMemSideCacheWriteback(t *testing.T) {
	m, _ := NewMemSideCache(4*64, 64)
	m.Access(0, Write)
	if _, wb := m.Access(4*64, Read); !wb {
		t.Fatal("dirty victim not written back")
	}
	if _, wb := m.Access(8*64, Read); wb {
		t.Fatal("clean victim written back")
	}
	if m.Stats().DirtyWritebacks != 1 {
		t.Fatalf("writebacks = %d", m.Stats().DirtyWritebacks)
	}
}

func TestMemSideCacheResident(t *testing.T) {
	m, _ := NewMemSideCache(8*64, 64)
	for i := uint64(0); i < 5; i++ {
		m.Access(i*64, Read)
	}
	if m.Resident() != 5 {
		t.Fatalf("resident = %d, want 5", m.Resident())
	}
	m.ResetStats()
	if m.Stats().Hits != 0 {
		t.Fatal("ResetStats failed")
	}
}

// Cross-validation: streaming over a working set with randomly-placed
// pages through the functional direct-mapped cache should land near
// the first-principles exp(-W/C) conflict model.
func TestDirectMappedTraceMatchesConflictModel(t *testing.T) {
	const line = 64
	capacity := units.Bytes(1 * units.MiB)
	m, _ := NewMemSideCache(capacity, line)
	rng := rand.New(rand.NewSource(7))

	for _, ratio := range []float64{0.5, 1.0, 1.5} {
		ws := units.Bytes(ratio * float64(capacity))
		// Random page placement over a 64x larger physical space.
		pages := ws.Pages()
		pagePhys := make([]uint64, pages)
		span := uint64(64 * float64(capacity))
		for i := range pagePhys {
			pagePhys[i] = (rng.Uint64() % (span / uint64(units.Page))) * uint64(units.Page)
		}
		// Two warm passes, then measure a pass.
		pass := func(count bool) float64 {
			if count {
				m.ResetStats()
			}
			for p := int64(0); p < pages; p++ {
				base := pagePhys[p]
				for off := uint64(0); off < uint64(units.Page); off += line {
					m.Access(base+off, Read)
				}
			}
			st := m.Stats()
			return st.HitRatio()
		}
		pass(false)
		pass(false)
		got := pass(true)
		want := DirectMappedConflictHitRatio(ws, capacity)
		if math.Abs(got-want) > 0.12 {
			t.Errorf("ratio %.2f: trace hit %.3f vs model %.3f", ratio, got, want)
		}
	}
}

func TestHitModelFunctions(t *testing.T) {
	if RandomHitRatio(0, units.MiB) != 1 {
		t.Error("empty ws should hit")
	}
	if RandomHitRatio(2*units.MiB, units.MiB) != 0.5 {
		t.Error("half-resident ws should hit 50%")
	}
	if RandomHitRatio(units.KiB, units.MiB) != 1 {
		t.Error("fitting ws should hit 100%")
	}
	if got := RandomHitRatioSteep(2*units.MiB, units.MiB, 2); got != 0.25 {
		t.Errorf("steep ratio = %v, want 0.25", got)
	}
	if DirectMappedConflictHitRatio(0, units.MiB) != 1 {
		t.Error("empty ws conflict ratio")
	}
	if DirectMappedConflictHitRatio(units.MiB, 0) != 0 {
		t.Error("zero capacity conflict ratio")
	}
	got := DirectMappedConflictHitRatio(units.MiB, units.MiB)
	if math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("conflict ratio at r=1: %v", got)
	}
	if RandomHitRatio(2*units.MiB, units.MiB) != 0.5 {
		t.Error("random hit ratio past capacity")
	}
}

func TestDirectMappedStreamHitRatioAnchors(t *testing.T) {
	cal := knl.KNL7210().Cal
	cap16 := 16 * units.GiB

	// At the calibrated anchors the interpolation returns the anchor.
	if got := DirectMappedStreamHitRatio(8*units.GiB, cap16, cal.CacheModeHitRatioAnchors); math.Abs(got-0.85) > 1e-9 {
		t.Errorf("h(0.5) = %v, want 0.85", got)
	}
	// Monotone nonincreasing in working set.
	prev := 2.0
	for ws := units.Bytes(0); ws <= 48*units.GiB; ws += units.GiB / 2 {
		h := DirectMappedStreamHitRatio(ws, cap16, cal.CacheModeHitRatioAnchors)
		if h > prev+1e-12 {
			t.Fatalf("hit ratio increased at ws=%v: %v > %v", ws, h, prev)
		}
		if h < 0 || h > 1 {
			t.Fatalf("hit ratio out of range at ws=%v: %v", ws, h)
		}
		prev = h
	}
	// Degenerate inputs.
	if DirectMappedStreamHitRatio(units.GiB, 0, cal.CacheModeHitRatioAnchors) != 0 {
		t.Error("zero capacity should yield 0")
	}
	if DirectMappedStreamHitRatio(units.GiB, cap16, nil) != 0 {
		t.Error("no anchors should yield 0")
	}
}

// Capacity returns the cache capacity.
func (m *MemSideCache) Capacity() units.Bytes { return units.Bytes(m.sets) * m.lineSize }

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
