package xrand

import "testing"

// Golden known-answer vectors for the PRNG every simulator depends
// on. Any change to the generator — seeding, state transition, output
// scrambler, or the derived Intn/Float64/Perm recipes — shifts
// event schedules, placements and shuffles everywhere, which shows up
// as golden-file diffs far from the cause. These tests pin the stream
// itself so drift fails here, with the culprit named.

// TestSplitmix64SeedExpansion checks New's seed expansion against the
// published splitmix64 reference sequence (Vigna,
// https://prng.di.unimi.it/splitmix64.c): for seed 0 the first four
// outputs are fixed constants reproduced by every conforming
// implementation. This is the one vector verifiable against an
// external source rather than against ourselves.
func TestSplitmix64SeedExpansion(t *testing.T) {
	want := [4]uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
	}
	r := New(0)
	if r.s != want {
		t.Errorf("New(0) state = %#016x, want splitmix64 reference %#016x", r.s, want)
	}
}

// kat pins the first outputs of each public stream for fixed seeds.
// Values were generated from this implementation and frozen; they are
// the contract now.
var kat = []struct {
	seed    uint64
	uint64s []uint64
	floats  []float64
	intn100 []int
	perm8   []int
}{
	{
		seed: 0,
		uint64s: []uint64{
			0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c,
			0xbba5ad4a1f842e59, 0xffef8375d9ebcaca, 0x6c160deed2f54c98, 0x8920ad648fc30a3f,
		},
		floats:  []float64{0.6012629994179048, 0.7477740925472398, 0.10301998939503632, 0.4165890778296456},
		intn100: []int{20, 82, 68, 32, 37, 98, 44, 3},
		perm8:   []int{3, 0, 6, 1, 2, 7, 5, 4},
	},
	{
		seed: 1,
		uint64s: []uint64{
			0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
		},
		floats:  []float64{0.7029218331588505, 0.5204366199388569, 0.5741057000197225, 0.39132860204190445},
		intn100: []int{57, 22, 0, 83, 71, 62, 86, 29},
		perm8:   []int{7, 0, 1, 4, 3, 2, 6, 5},
	},
	{
		seed: 42,
		uint64s: []uint64{
			0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1,
			0xfde6dc7fe2ec5e64, 0xc50da53101795238, 0xb82154855a65ddb2, 0xd99a2743ebe60087,
		},
		floats:  []float64{0.08386297105988216, 0.3789802506626686, 0.6800434110281394, 0.9246929453253876},
		intn100: []int{42, 2, 9, 93, 76, 84, 54, 7},
		perm8:   []int{7, 2, 4, 0, 3, 5, 1, 6},
	},
	{
		seed: 0x9e3779b97f4a7c15, // the splitmix64 golden-ratio increment itself
		uint64s: []uint64{
			0x422ea740d0977210, 0xe062b061b42e2928, 0x5a071fc5930841b6, 0x01334ef8ed3cc2bd,
			0xe45cbd6a2d9e96db, 0x3bc1fe841a5f292f, 0x60001d95ebbbd8e6, 0xa0aee00b5b303762,
		},
		floats:  []float64{0.2585243733634266, 0.8765058744940509, 0.35167120526878737, 0.004689155362245678},
		intn100: []int{52, 12, 62, 33, 27, 87, 82, 46},
		perm8:   []int{2, 7, 1, 6, 3, 4, 5, 0},
	},
	{
		seed: 0xdeadbeefcafef00d,
		uint64s: []uint64{
			0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238,
			0xc43a6d6a3492ced2, 0xdb639ecb036a9c04, 0xc5a4b301c52fcfa4, 0xbcc5e0efaa8ded95,
		},
		floats:  []float64{0.617962819927541, 0.08594392841466458, 0.5423944846740707, 0.4851453684125553},
		intn100: []int{95, 60, 82, 44, 98, 28, 76, 85},
		perm8:   []int{1, 6, 5, 2, 4, 0, 7, 3},
	},
}

func TestGoldenUint64(t *testing.T) {
	for _, k := range kat {
		r := New(k.seed)
		for i, want := range k.uint64s {
			if got := r.Uint64(); got != want {
				t.Errorf("seed %#x: Uint64 #%d = %#016x, want %#016x", k.seed, i, got, want)
			}
		}
	}
}

func TestGoldenFloat64(t *testing.T) {
	for _, k := range kat {
		r := New(k.seed)
		for i, want := range k.floats {
			if got := r.Float64(); got != want {
				t.Errorf("seed %#x: Float64 #%d = %v, want %v", k.seed, i, got, want)
			}
		}
	}
}

func TestGoldenIntn(t *testing.T) {
	for _, k := range kat {
		r := New(k.seed)
		for i, want := range k.intn100 {
			if got := r.Intn(100); got != want {
				t.Errorf("seed %#x: Intn(100) #%d = %d, want %d", k.seed, i, got, want)
			}
		}
	}
}

func TestGoldenPerm(t *testing.T) {
	for _, k := range kat {
		got := New(k.seed).Perm(8)
		for i := range got {
			if got[i] != k.perm8[i] {
				t.Errorf("seed %#x: Perm(8) = %v, want %v", k.seed, got, k.perm8)
				break
			}
		}
	}
}

// TestGoldenJitter pins the backoff-jitter stream: one Uint64 per
// draw, reduced modulo the bound like Intn. The resilient HTTP client
// (internal/service/client) derives its retry schedule from this, so
// drift here would silently change every client's timing behavior.
func TestGoldenJitter(t *testing.T) {
	want := []struct {
		seed   uint64
		values []int64
	}{
		{0, []int64{253066420, 169335082, 846508768, 626143532}},
		{42, []int64{402558742, 964543102, 248559009, 182124193}},
	}
	for _, k := range want {
		seed, ws := k.seed, k.values
		r := New(seed)
		for i, w := range ws {
			if got := r.Jitter(1_000_000_000); got != w {
				t.Errorf("seed %d: Jitter #%d = %d, want %d", seed, i, got, w)
			}
		}
	}
	r := New(0)
	if got := r.Jitter(0); got != 0 {
		t.Errorf("Jitter(0) = %d, want 0", got)
	}
	if got := r.Jitter(-5); got != 0 {
		t.Errorf("Jitter(-5) = %d, want 0", got)
	}
	if got := r.Jitter(1); got != 0 {
		t.Errorf("Jitter(1) = %d, want 0", got)
	}
}
