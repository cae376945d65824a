package knl

import (
	"math"
	"testing"
)

func TestKNL7210Valid(t *testing.T) {
	c := KNL7210()
	if err := c.Validate(); err != nil {
		t.Fatalf("KNL7210 preset invalid: %v", err)
	}
}

func TestKNL7210ArchitecturalFacts(t *testing.T) {
	c := KNL7210()
	if c.Cores != 64 || c.ThreadsPerCore != 4 {
		t.Errorf("cores/threads = %d/%d, want 64/4", c.Cores, c.ThreadsPerCore)
	}
	if c.MaxThreads() != 256 {
		t.Errorf("MaxThreads = %d, want 256", c.MaxThreads())
	}
	if got := c.MCDRAM.Capacity.GiBf(); got != 16 {
		t.Errorf("MCDRAM capacity = %v GiB, want 16", got)
	}
	if got := c.DDR.Capacity.GiBf(); got != 96 {
		t.Errorf("DDR capacity = %v GiB, want 96", got)
	}
	if c.DDR.Channels != 6 {
		t.Errorf("DDR channels = %d, want 6 (six DDR4 channels)", c.DDR.Channels)
	}
	if c.MCDRAM.Channels != 8 {
		t.Errorf("MCDRAM channels = %d, want 8 (eight 2 GB modules)", c.MCDRAM.Channels)
	}
	// Paper-quoted latencies.
	if c.DDR.IdleLatency != 130.4 || c.MCDRAM.IdleLatency != 154.0 {
		t.Errorf("idle latencies = %v/%v, want 130.4/154.0", c.DDR.IdleLatency, c.MCDRAM.IdleLatency)
	}
	// HBM latency is ~18% above DRAM (§IV-A).
	gap := float64(c.MCDRAM.IdleLatency)/float64(c.DDR.IdleLatency) - 1
	if gap < 0.17 || gap > 0.19 {
		t.Errorf("latency gap = %.3f, want ~0.18", gap)
	}
	// Bandwidth ratio ~4x (§II).
	ratio := float64(c.MCDRAM.PeakBW) / float64(c.DDR.PeakBW)
	if ratio < 3.5 || ratio > 5.5 {
		t.Errorf("pin bandwidth ratio = %.2f, want ~4-5x", ratio)
	}
	if p := c.PeakGFLOPS(); math.Abs(p-2662.4) > 0.1 {
		t.Errorf("peak GFLOPS = %v, want 2662.4", p)
	}
}

func TestThreadsPerCoreFor(t *testing.T) {
	c := KNL7210()
	cases := []struct{ threads, want int }{
		{1, 1}, {32, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {192, 3}, {256, 4}, {512, 4},
	}
	for _, cse := range cases {
		if got := c.ThreadsPerCoreFor(cse.threads); got != cse.want {
			t.Errorf("ThreadsPerCoreFor(%d) = %d, want %d", cse.threads, got, cse.want)
		}
	}
}

func TestActiveCoresFor(t *testing.T) {
	c := KNL7210()
	cases := []struct{ threads, want int }{
		{0, 1}, {1, 1}, {32, 32}, {64, 64}, {128, 64}, {256, 64},
	}
	for _, cse := range cases {
		if got := c.ActiveCoresFor(cse.threads); got != cse.want {
			t.Errorf("ActiveCoresFor(%d) = %d, want %d", cse.threads, got, cse.want)
		}
	}
}

func TestSeqConcurrencyReproducesStreamCalibration(t *testing.T) {
	c := KNL7210()
	// ht=1 on all 64 cores: the concurrency must deliver ~330 GB/s on
	// MCDRAM via Little's law (Fig. 2).
	n1 := c.SeqConcurrency(64)
	bw1 := n1 * 64 / float64(c.MCDRAM.IdleLatency)
	if bw1 < 315 || bw1 > 345 {
		t.Errorf("ht=1 HBM stream = %.0f GB/s, want ~330", bw1)
	}
	// ht=2 must be ~1.27x ht=1 (Fig. 5).
	n2 := c.SeqConcurrency(128)
	r := n2 / n1
	if r < 1.2 || r > 1.35 {
		t.Errorf("ht2/ht1 concurrency ratio = %.3f, want ~1.27", r)
	}
	// ht=3 and ht=4 stay near but below ht=2.
	if n3 := c.SeqConcurrency(192); n3 >= n2 || n3 < 0.9*n2 {
		t.Errorf("ht=3 concurrency %v out of (0.9..1.0)x ht=2 %v", n3, n2)
	}
}

func TestRandomConcurrency(t *testing.T) {
	c := KNL7210()
	// Default MLP: 64 threads * 2 = 128 lines.
	if got := c.RandomConcurrency(64, 0); got != 128 {
		t.Errorf("RandomConcurrency(64, default) = %v, want 128", got)
	}
	// Per-core saturation: 4 threads * 8 MLP = 32 > cap.
	got := c.RandomConcurrency(256, 8)
	capPerCore := c.Cal.SeqLinesPerCore[4] * 1.25
	if got != 64*capPerCore {
		t.Errorf("saturated RandomConcurrency = %v, want %v", got, 64*capPerCore)
	}
	// More threads never reduce concurrency.
	prev := 0.0
	for _, threads := range []int{16, 32, 64, 128, 192, 256} {
		n := c.RandomConcurrency(threads, 0)
		if n < prev {
			t.Errorf("RandomConcurrency not monotone at %d threads", threads)
		}
		prev = n
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := KNL7210()
	c.Cores = 63 // no longer tiles*coresPerTile
	if err := c.Validate(); err == nil {
		t.Error("mismatched tile/core count accepted")
	}
	c = KNL7210()
	c.Cal.SeqLinesPerCore[2] = 0
	if err := c.Validate(); err == nil {
		t.Error("missing concurrency entry accepted")
	}
	c = KNL7210()
	c.Cal.CacheModeHitRatioAnchors[1].Ratio = -1
	if err := c.Validate(); err == nil {
		t.Error("non-increasing anchors accepted")
	}
	c = KNL7210()
	c.Cal.CacheModeHitRatioAnchors[0].Hit = 1.5
	if err := c.Validate(); err == nil {
		t.Error("hit ratio > 1 accepted")
	}
	c = KNL7210()
	c.Cal.DGEMMEff[1] = 0
	if err := c.Validate(); err == nil {
		t.Error("zero DGEMM efficiency accepted")
	}
}
