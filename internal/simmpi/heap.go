package simmpi

// opHeap is an indexed binary min-heap of executable operations ordered
// by (ready, rank). This is exactly the total order the seed
// scheduler's per-commit linear scan walked (strictly-smaller ready
// wins; ties go to the lowest rank), so replacing the scan with
// push/pop changes commit cost from O(Ranks) to O(log Ranks) without
// perturbing a single commit decision — the determinism contract of
// the package rests on this equivalence, which the property suite in
// equivalence_test.go checks against the retained linear-scan
// reference picker.
//
// Each op carries its heap position in heapIdx (-1 when outside the
// heap); the index is maintained on every swap so membership checks and
// future decrease-key-style operations stay O(1).
type opHeap struct {
	a []*op
}

// opLess orders ops by (ready, rank) ascending.
func opLess(x, y *op) bool {
	return x.ready < y.ready || (x.ready == y.ready && x.rank < y.rank)
}

// push inserts an executable op.
func (h *opHeap) push(o *op) {
	h.a = append(h.a, o)
	o.heapIdx = len(h.a) - 1
	h.up(o.heapIdx)
}

// pop removes and returns the op with the smallest (ready, rank), or
// nil when the heap is empty.
func (h *opHeap) pop() *op {
	if len(h.a) == 0 {
		return nil
	}
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil // drop the stale reference so ops don't leak
	h.a = h.a[:last]
	if last > 0 {
		h.a[0].heapIdx = 0
		h.down(0)
	}
	top.heapIdx = -1
	return top
}

func (h *opHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !opLess(h.a[i], h.a[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *opHeap) down(i int) {
	n := len(h.a)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		s := l
		if r := l + 1; r < n && opLess(h.a[r], h.a[l]) {
			s = r
		}
		if !opLess(h.a[s], h.a[i]) {
			return
		}
		h.swap(i, s)
		i = s
	}
}

func (h *opHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].heapIdx = i
	h.a[j].heapIdx = j
}
