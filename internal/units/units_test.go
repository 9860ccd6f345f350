package units

import (
	"math"
	"testing"
)

func TestBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1KiB"},
		{32 * KiB, "32KiB"},
		{50 * KiB, "50KiB"},
		{8 * MiB, "8MiB"},
		{12 * GiB, "12GiB"},
		{1536, "1.5KiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBytesEdgeCases(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{-512, "-512B"},
		{-1024, "-1KiB"},
		{-2048, "-2KiB"},
		{-8 * MiB, "-8MiB"},
		{-12 * GiB, "-12GiB"},
		{math.MinInt64, "-8589934592GiB"},
		{math.MaxInt64, "8589934592GiB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}
