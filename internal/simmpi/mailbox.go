package simmpi

// msgq is one FIFO of in-flight messages for a (src, tag) pair bound
// for a single destination rank. Delivered messages are popped by
// advancing head instead of re-slicing (`q = q[1:]`), so the backing
// array is reused once the queue drains rather than pinned alive by a
// moving slice start — the long-queue retention bug of the map-based
// seed mailbox. A queue that never fully drains is compacted once the
// delivered prefix dominates the live tail.
type msgq struct {
	src, tag int
	head     int
	msgs     []msg
}

func (q *msgq) empty() bool { return q.head == len(q.msgs) }

// mailboxIndexThreshold is the live-queue count past which a mailbox
// builds its key index. Below it a linear scan is cheaper than map
// maintenance (and allocation-free); above it — fan-in patterns like
// the Figure 4 incast, where every rank holds an open queue to one
// destination — lookups must not degrade to O(ranks).
const mailboxIndexThreshold = 8

// mailbox holds the in-flight messages of one destination rank as a
// set of per-(src, tag) FIFOs. Drained queues are retired to a free
// list and recycled (backing arrays included) for new keys, so the
// queue slice tracks the *simultaneously live* key count, not the
// total keys ever seen. The free list is threaded through the retired
// queues themselves, so retiring never allocates: a rank's own Recv
// retires queues on the rank's coroutine stack, and an allocation there
// would double that stack. Lookup is a linear scan while few queues are
// live — neighbour exchanges and ping-pongs stay allocation-free —
// and switches to a lazily built key index once fan-in traffic opens
// more than mailboxIndexThreshold concurrent queues, keeping push and
// match O(1) amortized in the incast regime too.
type mailbox struct {
	queues []msgq
	live   int            // queues holding a key
	free   int            // 1 + position of the last retired queue; 0 if none
	index  map[uint64]int // key -> live queue position; nil until needed
}

// mbkey packs a (src, tag) pair into one index key. Ranks are
// non-negative and collective tags stay far below 2^32.
func mbkey(src, tag int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

// findLive returns the position of the live queue for (src, tag), or
// -1. Retired queues carry src = -1 and can never match.
func (mb *mailbox) findLive(src, tag int) int {
	if mb.index != nil {
		if i, ok := mb.index[mbkey(src, tag)]; ok {
			return i
		}
		return -1
	}
	for i := range mb.queues {
		q := &mb.queues[i]
		if q.src == src && q.tag == tag {
			return i
		}
	}
	return -1
}

// push appends a message to the (src, tag) FIFO, recycling a retired
// queue or creating one as needed.
func (mb *mailbox) push(src, tag int, m msg) {
	if i := mb.findLive(src, tag); i >= 0 {
		q := &mb.queues[i]
		q.msgs = append(q.msgs, m)
		return
	}
	var pos int
	if mb.free > 0 {
		pos = mb.free - 1
		q := &mb.queues[pos]
		mb.free = q.tag
		q.src, q.tag, q.head = src, tag, 0
		q.msgs = append(q.msgs[:0], m)
	} else {
		pos = len(mb.queues)
		mb.queues = append(mb.queues, msgq{src: src, tag: tag, msgs: []msg{m}})
	}
	mb.live++
	switch {
	case mb.index != nil:
		mb.index[mbkey(src, tag)] = pos
	case mb.live > mailboxIndexThreshold:
		mb.index = make(map[uint64]int, 2*mailboxIndexThreshold)
		for i := range mb.queues {
			if q := &mb.queues[i]; q.src >= 0 {
				mb.index[mbkey(q.src, q.tag)] = i
			}
		}
	}
}

// match pops the oldest in-flight message for (src, tag), preserving
// per-key FIFO order.
func (mb *mailbox) match(src, tag int) (msg, bool) {
	i := mb.findLive(src, tag)
	if i < 0 {
		return msg{}, false
	}
	q := &mb.queues[i]
	if q.empty() {
		return msg{}, false
	}
	m := q.msgs[q.head]
	q.head++
	switch {
	case q.empty():
		mb.retire(i)
	case q.head >= 32 && q.head*2 >= len(q.msgs):
		// Long-lived queue: copy the live tail down so the delivered
		// prefix cannot grow without bound.
		n := copy(q.msgs, q.msgs[q.head:])
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	return m, true
}

// retire marks the drained queue at position i reusable: it carries
// src -1, so no key finds it, and its tag links the free list. FIFO per
// key survives recycling: a retired queue is empty, so a later message
// for its old key starting a fresh queue cannot reorder anything.
func (mb *mailbox) retire(i int) {
	q := &mb.queues[i]
	if mb.index != nil {
		delete(mb.index, mbkey(q.src, q.tag))
	}
	q.src, q.tag = -1, mb.free
	q.head = 0
	q.msgs = q.msgs[:0]
	mb.free = i + 1
	mb.live--
}
