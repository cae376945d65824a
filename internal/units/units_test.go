package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if KiB != 1024 || MiB != 1024*KiB || GiB != 1024*MiB || TiB != 1024*GiB {
		t.Fatalf("binary unit ladder broken: %d %d %d %d", KiB, MiB, GiB, TiB)
	}
	if CacheLine != 64 {
		t.Fatalf("KNL cache line must be 64 B, got %d", CacheLine)
	}
	if Page != 4096 {
		t.Fatalf("base page must be 4 KiB, got %d", Page)
	}
}

func TestGBRoundTrip(t *testing.T) {
	for _, g := range []float64{0.1, 0.5, 1, 1.5, 16, 96, 384} {
		b := GB(g)
		if math.Abs(b.GiBf()-g) > 1e-8 {
			t.Errorf("GB(%v).GiBf() = %v", g, b.GiBf())
		}
	}
}

func TestLinesAndPages(t *testing.T) {
	cases := []struct {
		b     Bytes
		lines int64
		pages int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{64, 1, 1},
		{65, 2, 1},
		{4096, 64, 1},
		{4097, 65, 2},
	}
	for _, c := range cases {
		if got := c.b.Lines(); got != c.lines {
			t.Errorf("%d.Lines() = %d, want %d", c.b, got, c.lines)
		}
		if got := c.b.Pages(); got != c.pages {
			t.Errorf("%d.Pages() = %d, want %d", c.b, got, c.pages)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{KiB, "1.0 KiB"},
		{16 * GiB, "16.0 GiB"},
		{-2 * MiB, "-2.0 MiB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"64", 64},
		{"64B", 64},
		{"512K", 512 * KiB},
		{"512KB", 512 * KiB},
		{"512KiB", 512 * KiB},
		{"1M", MiB},
		{"16GB", 16 * GiB},
		{"1.5 GiB", GB(1.5)},
		{"0.5g", GB(0.5)},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "-3GB", "GB", "1.2.3M"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q): expected error", bad)
		}
	}
}

func TestParseFormatRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		b := Bytes(raw)
		got, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		// String() rounds to one decimal of the chosen unit, so allow
		// that much slack on the round trip.
		var unit Bytes = 1
		switch {
		case b >= TiB:
			unit = TiB
		case b >= GiB:
			unit = GiB
		case b >= MiB:
			unit = MiB
		case b >= KiB:
			unit = KiB
		}
		diff := got - b
		if diff < 0 {
			diff = -diff
		}
		return diff <= unit/10+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthAndDuration(t *testing.T) {
	bw := GBps(330)
	if float64(bw) != 330 {
		t.Fatalf("GBps(330) = %v", float64(bw))
	}
	if bw.String() != "330.0 GB/s" {
		t.Fatalf("bw.String() = %q", bw.String())
	}
	d := Nanoseconds(1.5e9)
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", d.Seconds())
	}
	if d.String() != "1.500 s" {
		t.Fatalf("d.String() = %q", d.String())
	}
	if Nanoseconds(130.4).String() != "130.4 ns" {
		t.Fatalf("ns formatting: %q", Nanoseconds(130.4).String())
	}
	if Nanoseconds(2500).String() != "2.500 us" {
		t.Fatalf("us formatting: %q", Nanoseconds(2500).String())
	}
	if Nanoseconds(3.2e6).String() != "3.200 ms" {
		t.Fatalf("ms formatting: %q", Nanoseconds(3.2e6).String())
	}
}

// Lines returns the number of cache lines covering b, rounding up.
func (b Bytes) Lines() int64 { return int64((b + CacheLine - 1) / CacheLine) }
