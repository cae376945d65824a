package memkind

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/knl"
	"repro/internal/numa"
	"repro/internal/units"
)

func heapFor(t *testing.T, mode numa.MemMode) *Heap {
	t.Helper()
	c := knl.KNL7210()
	topo, err := numa.NewTopology(c.DDR, c.MCDRAM, mode, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return NewHeap(alloc.NewAddressSpace(topo))
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Default:       "MEMKIND_DEFAULT",
		HBW:           "MEMKIND_HBW",
		HBWPreferred:  "MEMKIND_HBW_PREFERRED",
		HBWInterleave: "MEMKIND_HBW_INTERLEAVE",
		Interleave:    "MEMKIND_INTERLEAVE",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind formatting")
	}
}

func TestHBWAvailability(t *testing.T) {
	flat := heapFor(t, numa.FlatMode)
	if !flat.HBWAvailable() {
		t.Fatal("flat mode should expose HBW")
	}
	cache := heapFor(t, numa.CacheMode)
	if cache.HBWAvailable() {
		t.Fatal("cache mode must not expose HBW")
	}
	if _, err := cache.Malloc(HBW, units.MB(1)); !errors.Is(err, ErrHBWUnavailable) {
		t.Fatalf("hbw malloc in cache mode: %v", err)
	}
	// Default still works in cache mode.
	if _, err := cache.Malloc(Default, units.MB(1)); err != nil {
		t.Fatalf("default malloc in cache mode: %v", err)
	}
}

func TestMallocPlacement(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	// Big HBW allocation lands entirely on node 1.
	addr, err := h.Malloc(HBW, units.GB(1))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := h.NodeFootprint(addr)
	if err != nil {
		t.Fatal(err)
	}
	if fp[0] != 0 || fp[1] < units.GB(1) {
		t.Fatalf("HBW footprint = %v", fp)
	}
	// Default lands on node 0.
	addr2, err := h.Malloc(Default, units.GB(1))
	if err != nil {
		t.Fatal(err)
	}
	fp2, _ := h.NodeFootprint(addr2)
	if fp2[1] != 0 || fp2[0] < units.GB(1) {
		t.Fatalf("Default footprint = %v", fp2)
	}
	// Interleave splits about evenly.
	addr3, err := h.Malloc(Interleave, units.GB(1))
	if err != nil {
		t.Fatal(err)
	}
	fp3, _ := h.NodeFootprint(addr3)
	if fp3[0] != fp3[1] {
		t.Fatalf("Interleave footprint = %v", fp3)
	}
}

func TestHBWExhaustionAndPreferred(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	// Fill MCDRAM (16 GiB).
	if _, err := h.Malloc(HBW, 16*units.GiB); err != nil {
		t.Fatal(err)
	}
	// Strict HBW now fails.
	if _, err := h.Malloc(HBW, units.GB(1)); !errors.Is(err, alloc.ErrOutOfMemory) {
		t.Fatalf("expected OOM on exhausted HBW, got %v", err)
	}
	// Preferred falls back to DDR.
	addr, err := h.Malloc(HBWPreferred, units.GB(1))
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := h.NodeFootprint(addr)
	if fp[0] < units.GB(1) {
		t.Fatalf("preferred fallback footprint = %v", fp)
	}
}

func TestSmallAllocationReuse(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	a, err := h.Malloc(Default, 100)
	if err != nil {
		t.Fatal(err)
	}
	if us := h.live[a].usable; us != 128 {
		t.Fatalf("usable size of 100 B = %v, want 128 (size class)", us)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := h.Malloc(Default, 128)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("free list not reused: %#x vs %#x", b, a)
	}
	if len(h.live) != 1 {
		t.Fatalf("live blocks = %d", len(h.live))
	}
}

func TestFreeErrors(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	if err := h.Free(0xdead); err == nil {
		t.Error("free of unknown address accepted")
	}
	a, _ := h.Malloc(Default, 64)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err == nil {
		t.Error("double free accepted")
	}
	if _, ok := h.live[a]; ok {
		t.Error("freed block still live")
	}
	if _, err := h.NodeFootprint(a); err == nil {
		t.Error("footprint of freed block accepted")
	}
}

func TestMallocRejectsBadArgs(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	if _, err := h.Malloc(Default, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := h.Malloc(Kind(99), 64); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindOf(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	a, _ := h.Malloc(HBWPreferred, units.MB(1))
	if k := h.live[a].kind; k != HBWPreferred {
		t.Fatalf("kind = %v", k)
	}
}

func TestStats(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	a, _ := h.Malloc(Default, units.MB(1))
	b, _ := h.Malloc(Default, units.MB(2))
	st := h.Stats()
	if st.Allocs != 2 || st.Frees != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRequested != units.MB(3) {
		t.Fatalf("requested = %v", st.BytesRequested)
	}
	if st.LiveBytes < units.MB(3) {
		t.Fatalf("live = %v", st.LiveBytes)
	}
	peak := st.LiveBytes
	_ = h.Free(a)
	_ = h.Free(b)
	st = h.Stats()
	if st.LiveBytes != 0 || st.PeakLiveBytes != peak || st.Frees != 2 {
		t.Fatalf("after frees: %+v", st)
	}
}

func TestNoOverlapProperty(t *testing.T) {
	h := heapFor(t, numa.FlatMode)
	type span struct{ lo, hi uint64 }
	var spans []span
	f := func(raw uint16) bool {
		size := units.Bytes(raw%8192 + 1)
		addr, err := h.Malloc(Default, size)
		if err != nil {
			return false
		}
		s := span{addr, addr + uint64(h.live[addr].usable)}
		for _, o := range spans {
			if s.lo < o.hi && o.lo < s.hi {
				return false // overlap
			}
		}
		spans = append(spans, s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeClassProperty(t *testing.T) {
	f := func(raw uint32) bool {
		size := units.Bytes(raw%uint32(bigThreshold) + 1)
		_, rounded := sizeClass(size)
		return rounded >= size && rounded < 2*size+minClass && rounded%minClass == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Free releases an allocation.
func (h *Heap) Free(addr uint64) error {
	b, ok := h.live[addr]
	if !ok {
		return fmt.Errorf("memkind: free of unknown address %#x", addr)
	}
	delete(h.live, addr)
	h.stats.Frees++
	h.stats.LiveBytes -= b.usable
	if b.region != nil {
		return h.space.Free(b.region)
	}
	a := h.arenas[b.kind]
	a.freeLs[b.class] = append(a.freeLs[b.class], b.slot)
	return nil
}
