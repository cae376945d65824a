// Package units provides byte-size and rate units used throughout the
// hybrid-memory simulator, plus parsing and human-readable formatting.
//
// The simulator works in SI-ish hybrid conventions matching the paper:
// capacities use binary units (16 GB MCDRAM = 16 GiB), while bandwidths
// use decimal units (GB/s = 1e9 bytes per second), which is the
// convention STREAM and the KNL literature use.
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Bytes is a byte count. It is signed so that differences are easy to
// compute; negative values are invalid as capacities.
type Bytes int64

// Binary byte units, used for capacities and working-set sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
	TiB Bytes = 1 << 40
)

// CacheLine is the line size of every cache level on KNL.
const CacheLine Bytes = 64

// Page is the base page size used by the simulated OS (4 KiB).
const Page Bytes = 4 * KiB

// GB converts a (possibly fractional) GiB count to Bytes.
func GB(g float64) Bytes { return Bytes(g * float64(GiB)) }

// MB converts a (possibly fractional) MiB count to Bytes.
func MB(m float64) Bytes { return Bytes(m * float64(MiB)) }

// GiBf returns the size expressed in (fractional) GiB.
func (b Bytes) GiBf() float64 { return float64(b) / float64(GiB) }

// MiBf returns the size expressed in (fractional) MiB.
func (b Bytes) MiBf() float64 { return float64(b) / float64(MiB) }

// Pages returns the number of base pages covering b, rounding up.
func (b Bytes) Pages() int64 { return int64((b + Page - 1) / Page) }

// String renders the size with a binary suffix, e.g. "16.0 GiB".
func (b Bytes) String() string {
	neg := ""
	v := b
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= TiB:
		return fmt.Sprintf("%s%.1f TiB", neg, float64(v)/float64(TiB))
	case v >= GiB:
		return fmt.Sprintf("%s%.1f GiB", neg, float64(v)/float64(GiB))
	case v >= MiB:
		return fmt.Sprintf("%s%.1f MiB", neg, float64(v)/float64(MiB))
	case v >= KiB:
		return fmt.Sprintf("%s%.1f KiB", neg, float64(v)/float64(KiB))
	}
	return fmt.Sprintf("%s%d B", neg, int64(v))
}

// ParseBytes parses strings like "16GB", "1.5 GiB", "512K", "64" (bytes).
// Both binary ("KiB") and short ("K", "KB") suffixes are accepted and
// all are interpreted as binary multiples, matching how the paper
// quotes capacities.
func ParseBytes(s string) (Bytes, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	upper := strings.ToUpper(t)
	mult := Bytes(1)
	for _, suf := range []struct {
		names []string
		mult  Bytes
	}{
		{[]string{"TIB", "TB", "T"}, TiB},
		{[]string{"GIB", "GB", "G"}, GiB},
		{[]string{"MIB", "MB", "M"}, MiB},
		{[]string{"KIB", "KB", "K"}, KiB},
		{[]string{"B"}, 1},
	} {
		done := false
		for _, name := range suf.names {
			if strings.HasSuffix(upper, name) {
				upper = strings.TrimSpace(strings.TrimSuffix(upper, name))
				mult = suf.mult
				done = true
				break
			}
		}
		if done {
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(upper), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	total := v * float64(mult)
	if total > float64(1<<62) {
		return 0, fmt.Errorf("units: size %q overflows", s)
	}
	return Bytes(total), nil
}

// BytesPerNS is a bandwidth in bytes per nanosecond, which is
// numerically identical to GB/s (1e9 bytes / 1e9 ns).
type BytesPerNS float64

// GBps constructs a bandwidth from a GB/s value.
func GBps(v float64) BytesPerNS { return BytesPerNS(v) }

// String renders the bandwidth, e.g. "330.0 GB/s".
func (bw BytesPerNS) String() string { return fmt.Sprintf("%.1f GB/s", float64(bw)) }

// Nanoseconds is a duration in nanoseconds, kept as float64 so that
// sub-nanosecond model terms do not truncate.
type Nanoseconds float64

// Seconds reports the duration in seconds.
func (ns Nanoseconds) Seconds() float64 { return float64(ns) * 1e-9 }

// String renders the duration with an adaptive unit.
func (ns Nanoseconds) String() string {
	v := float64(ns)
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3f s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3f ms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3f us", v/1e3)
	}
	return fmt.Sprintf("%.1f ns", v)
}
