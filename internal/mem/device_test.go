package mem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func testDDR() DeviceSpec {
	return DeviceSpec{
		Kind:        DDR,
		Capacity:    96 * units.GiB,
		Channels:    6,
		IdleLatency: 130.4,
		PeakBW:      units.GBps(90),
		EffSeqBW:    units.GBps(77),
	}
}

func testMCDRAM() DeviceSpec {
	return DeviceSpec{
		Kind:        MCDRAM,
		Capacity:    16 * units.GiB,
		Channels:    8,
		IdleLatency: 154.0,
		PeakBW:      units.GBps(450),
		EffSeqBW:    units.GBps(430),
	}
}

func TestKindString(t *testing.T) {
	if DDR.String() != "DRAM" || MCDRAM.String() != "MCDRAM" {
		t.Fatalf("kind names: %q %q", DDR.String(), MCDRAM.String())
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind: %q", Kind(9).String())
	}
}

func TestValidate(t *testing.T) {
	if err := testDDR().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := testDDR()
	bad.Capacity = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	bad = testDDR()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = testDDR()
	bad.IdleLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	bad = testDDR()
	bad.EffSeqBW = bad.PeakBW + 1
	if err := bad.Validate(); err == nil {
		t.Error("eff > pin bandwidth accepted")
	}
	bad = testDDR()
	bad.PeakBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestAchievedConcurrencyLimited(t *testing.T) {
	d := testMCDRAM()
	// 794 outstanding lines at 154 ns idle => ~330 GB/s, the paper's
	// 64-thread single-HT STREAM number for HBM.
	bw, lat := d.Achieved(794)
	if float64(bw) < 315 || float64(bw) > 340 {
		t.Fatalf("achieved bw = %v, want ~330 GB/s", bw)
	}
	if lat < d.IdleLatency {
		t.Fatalf("loaded latency %v below idle %v", lat, d.IdleLatency)
	}
	// Regime 1: the achieved bandwidth is the demand at idle latency.
	recon := 794 * 64 / float64(d.IdleLatency)
	if math.Abs(recon-float64(bw)) > 1e-6*recon {
		t.Fatalf("demand mismatch: %v vs %v", recon, bw)
	}
}

func TestAchievedBandwidthLimited(t *testing.T) {
	d := testDDR()
	// Way more concurrency than DDR needs: pins at effective peak.
	bw, lat := d.Achieved(2000)
	if math.Abs(float64(bw)-77) > 1e-9 {
		t.Fatalf("bw = %v, want pinned 77 GB/s", bw)
	}
	// Latency inflates to balance Little's law.
	want := 2000.0 * 64 / 77
	if math.Abs(float64(lat)-want) > 1e-6*want {
		t.Fatalf("lat = %v, want %v", lat, want)
	}
}

func TestAchievedZeroConcurrency(t *testing.T) {
	d := testDDR()
	bw, lat := d.Achieved(0)
	if bw != 0 || lat != d.IdleLatency {
		t.Fatalf("zero concurrency: bw=%v lat=%v", bw, lat)
	}
}

func TestLoadedLatencyMonotone(t *testing.T) {
	d := testDDR()
	prev := units.Nanoseconds(0)
	for u := 0.0; u <= 1.2; u += 0.01 {
		l := d.LoadedLatency(u)
		if l < prev {
			t.Fatalf("loaded latency not monotone at u=%v: %v < %v", u, l, prev)
		}
		prev = l
	}
	if d.LoadedLatency(-1) != d.LoadedLatency(0) {
		t.Fatal("negative utilization should clamp to 0")
	}
	if d.LoadedLatency(0) != d.IdleLatency {
		t.Fatalf("idle load latency = %v, want %v", d.LoadedLatency(0), d.IdleLatency)
	}
	if max := d.LoadedLatency(5); max > 3*d.IdleLatency+1e-9 {
		t.Fatalf("latency cap exceeded: %v", max)
	}
}

func TestAchievedMonotoneInConcurrencyProperty(t *testing.T) {
	d := testMCDRAM()
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		if x > y {
			x, y = y, x
		}
		bwx, _ := d.Achieved(x)
		bwy, _ := d.Achieved(y)
		return bwy >= bwx-1e-9 // more concurrency never reduces bandwidth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAchievedNeverExceedsPeakProperty(t *testing.T) {
	for _, d := range []DeviceSpec{testDDR(), testMCDRAM()} {
		d := d
		f := func(n uint32) bool {
			bw, lat := d.Achieved(float64(n))
			return bw <= d.EffSeqBW+1e-9 && lat >= d.IdleLatency-1e-9
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", d.Kind, err)
		}
	}
}
