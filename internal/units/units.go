// Package units provides the binary size constants and the byte-count
// formatter shared by the simulators and reports.
package units

import (
	"fmt"
	"math"
)

// Binary sizes in bytes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)

// Bytes formats a byte count with a binary suffix (B, KiB, MiB, GiB).
func Bytes(n int64) string {
	// Factor the sign out first so a negative count picks its unit by
	// magnitude (-2048 → "-2KiB") instead of falling through every
	// threshold into the bytes branch. int64 negation overflows on
	// MinInt64 only; route that one magnitude through float64.
	if n < 0 {
		if n == math.MinInt64 {
			return "-" + trim(-float64(n)/GiB, "GiB")
		}
		return "-" + Bytes(-n)
	}
	switch {
	case n >= GiB:
		return trim(float64(n)/GiB, "GiB")
	case n >= MiB:
		return trim(float64(n)/MiB, "MiB")
	case n >= KiB:
		return trim(float64(n)/KiB, "KiB")
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func trim(v float64, suffix string) string {
	s := fmt.Sprintf("%.2f", v)
	// Drop trailing zeros and a dangling decimal point for compactness.
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s + suffix
}
