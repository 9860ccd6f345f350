package simmpi

// opHeap is a binary min-heap over the ranks whose queue head is
// executable, keyed by (ready, rank) stored inline. This is exactly the
// total order the seed scheduler's per-commit linear scan walked
// (strictly-smaller ready wins; ties go to the lowest rank), so the heap
// changes commit cost from O(Ranks) to O(log Ranks) without perturbing a
// single commit decision — the determinism contract of the package rests
// on this equivalence, which the property suite in equivalence_test.go
// checks against the retained linear-scan reference picker.
//
// A rank has at most one key in the heap: its queue head's. A commit
// takes the top rank's head, then replaces the top with the rank's next
// head (one sift down), or pops it when that head is missing or a
// parked recv.
type opHeap struct {
	a []heapKey
}

type heapKey struct {
	ready float64
	rank  int
}

func (k heapKey) less(o heapKey) bool {
	return k.ready < o.ready || (k.ready == o.ready && k.rank < o.rank)
}

// push inserts a key.
func (h *opHeap) push(k heapKey) {
	h.a = append(h.a, k)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.less(a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = k
}

// replaceTop replaces the smallest key with k.
func (h *opHeap) replaceTop(k heapKey) { h.down(k) }

// popTop removes the smallest key.
func (h *opHeap) popTop() {
	last := len(h.a) - 1
	k := h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(k)
	}
}

// down puts k at the root and sifts it to its place.
func (h *opHeap) down(k heapKey) {
	a := h.a
	n := len(a)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && a[r].less(a[c]) {
			c = r
		}
		if !a[c].less(k) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = k
}
