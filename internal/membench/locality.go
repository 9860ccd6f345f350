package membench

import (
	"fmt"

	"montblanc/internal/platform"
)

// LocalityPoint is one cell of a temporal/spatial locality profile.
type LocalityPoint struct {
	ArrayBytes  int
	StrideElems int
	Bandwidth   float64 // bytes/s
}

// LocalityProfile sweeps array size (temporal locality: cache capacity)
// against stride (spatial locality: line utilization), the full
// parameter space of the §V.A kernel: "Such parameters provide a crude
// estimation how temporal and spatial locality of the code impact
// performance on a given machine." Every cell starts from a fresh
// hierarchy: one Runner, reset before each cell.
func LocalityProfile(p *platform.Platform, sizes, strides []int) ([]LocalityPoint, error) {
	if len(sizes) == 0 || len(strides) == 0 {
		return nil, fmt.Errorf("membench: empty locality sweep")
	}
	r, err := NewRunner(p, nil)
	if err != nil {
		return nil, err
	}
	out := make([]LocalityPoint, 0, len(sizes)*len(strides))
	for _, size := range sizes {
		for _, stride := range strides {
			r.hier.Reset()
			res, err := r.Run(Config{ArrayBytes: size, StrideElems: stride})
			if err != nil {
				return nil, err
			}
			out = append(out, LocalityPoint{
				ArrayBytes:  size,
				StrideElems: stride,
				Bandwidth:   res.Bandwidth,
			})
		}
	}
	return out, nil
}

// At returns the profile cell for (size, stride), or false.
func At(profile []LocalityPoint, size, stride int) (LocalityPoint, bool) {
	for _, pt := range profile {
		if pt.ArrayBytes == size && pt.StrideElems == stride {
			return pt, true
		}
	}
	return LocalityPoint{}, false
}

// CapacityCliffs returns, for the given stride, the bandwidth drop
// factors across each consecutive size pair — the signature used to
// locate cache-level boundaries from measurements alone.
func CapacityCliffs(profile []LocalityPoint, stride int) []float64 {
	var sizes []int
	bw := map[int]float64{}
	for _, pt := range profile {
		if pt.StrideElems == stride {
			sizes = append(sizes, pt.ArrayBytes)
			bw[pt.ArrayBytes] = pt.Bandwidth
		}
	}
	var cliffs []float64
	for i := 1; i < len(sizes); i++ {
		prev, cur := bw[sizes[i-1]], bw[sizes[i]]
		if cur > 0 {
			cliffs = append(cliffs, prev/cur)
		}
	}
	return cliffs
}
