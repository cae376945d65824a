package cache

import (
	"testing"

	"repro/internal/units"
)

func TestTLBValidation(t *testing.T) {
	if _, err := NewTLB(0, 64, 512); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := NewTLB(units.Page, 0, 512); err == nil {
		t.Error("zero l1 entries accepted")
	}
	if _, err := NewTLB(units.Page, 64, 32); err == nil {
		t.Error("l2 < l1 accepted")
	}
}

func TestTLBHitPath(t *testing.T) {
	tlb, err := NewTLB(units.Page, 64, 512)
	if err != nil {
		t.Fatal(err)
	}
	if tlb.PageSize() != units.Page {
		t.Fatalf("page size %v", tlb.PageSize())
	}
	if tlb.Reach() != 512*units.Page {
		t.Fatalf("reach = %v", tlb.Reach())
	}
	// First touch walks; second hits L1.
	if w := tlb.Translate(0); w != 4 {
		t.Fatalf("cold translate walked %d refs, want 4", w)
	}
	if w := tlb.Translate(100); w != 0 {
		t.Fatalf("warm same-page translate walked %d", w)
	}
	st := tlb.Stats()
	if st.Walks != 1 || st.L1Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTLBL2Backstop(t *testing.T) {
	tlb, _ := NewTLB(units.Page, 4, 64)
	// Touch 16 pages: evicts all of tiny L1 but fits L2.
	for p := uint64(0); p < 16; p++ {
		tlb.Translate(p * uint64(units.Page))
	}
	// Revisit page 0: L1 evicted it, L2 still has it.
	if w := tlb.Translate(0); w != 0 {
		t.Fatalf("expected L2 hit, walked %d", w)
	}
	if tlb.Stats().L2Hits == 0 {
		t.Fatal("no L2 hits recorded")
	}
}

func TestTLBWalksGrowBeyondReach(t *testing.T) {
	tlb, _ := NewTLB(units.Page, 4, 16)
	// Working set of 64 pages >> 16-entry reach: a cyclic sweep
	// should walk on (nearly) every access after warmup.
	for round := 0; round < 3; round++ {
		for p := uint64(0); p < 64; p++ {
			tlb.Translate(p * uint64(units.Page))
		}
	}
	st := tlb.Stats()
	if st.Walks < 150 {
		t.Fatalf("expected pervasive walks, got %d of 192", st.Walks)
	}
}

func TestPrefetcherConfirmsStream(t *testing.T) {
	p := NewStreamPrefetcher(4, 4, 64)
	if got := p.Observe(0); got != nil {
		t.Fatal("first access should not prefetch")
	}
	got := p.Observe(64)
	if len(got) != 4 {
		t.Fatalf("confirmed stream issued %d prefetches, want 4", len(got))
	}
	if got[0] != 2*64 || got[3] != 5*64 {
		t.Fatalf("prefetch window = %v", got)
	}
	if p.Issued() != 4 {
		t.Fatalf("Issued = %d", p.Issued())
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
