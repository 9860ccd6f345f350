package simmpi

import "fmt"

// Collective operations implemented over Send/Recv with the standard
// algorithms real MPI libraries use — which is what exposes them to
// switch congestion exactly as the paper observed: the naive linear
// all-to-all floods destination ports (Figure 4), while neighbour-only
// patterns stay clean.

// Internal tag space for collectives, above any sane user tag.
const (
	tagBarrier   = 1 << 20
	tagBcast     = 2 << 20
	tagReduce    = 3 << 20
	tagAlltoall  = 4 << 20
	tagAllgather = 5 << 20
)

// Barrier synchronizes all ranks (dissemination algorithm: works for
// any rank count, log2(n) rounds).
func (p *Proc) Barrier() error {
	return p.Collective("barrier", func() error {
		for k := 1; k < p.size; k <<= 1 {
			dst := (p.rank + k) % p.size
			src := (p.rank - k + p.size) % p.size
			if err := p.Send(dst, tagBarrier+k, 1); err != nil {
				return err
			}
			if err := p.Recv(src, tagBarrier+k); err != nil {
				return err
			}
		}
		return nil
	})
}

// bcastBinomial sends bytes from root down a binomial tree under tag:
// the broadcast half of Allreduce.
func (p *Proc) bcastBinomial(root, bytes, tag int) error {
	relative := (p.rank - root + p.size) % p.size
	mask := 1
	for mask < p.size {
		if relative&mask != 0 {
			src := (relative - mask + root) % p.size
			if err := p.Recv(src, tag); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < p.size {
			dst := (relative + mask + root) % p.size
			if err := p.Send(dst, tag, bytes); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// BcastLarge broadcasts bytes from root with the scatter + ring
// allgather algorithm MPI libraries use for large messages (and HPL for
// panel broadcasts): the root binomially scatters 1/size-sized chunks,
// then a ring allgather circulates them. Every message goes to a tree
// child or a ring neighbour — no incast — and each phase moves about
// bytes per rank, so the cost is nearly flat in the rank count. On an
// idle store-and-forward Star, where every message crosses two links,
// it is about 4.3*bytes/bandwidth at 32 ranks.
func (p *Proc) BcastLarge(root, bytes int) error {
	return p.Collective("bcast", func() error {
		if p.size == 1 {
			return nil
		}
		relative := (p.rank - root + p.size) % p.size
		chunk := (bytes + p.size - 1) / p.size
		// Scatter phase: binomial tree where each hop forwards only the
		// destination subtree's share.
		mask := 1
		for mask < p.size {
			if relative&mask != 0 {
				src := (relative - mask + root) % p.size
				if err := p.Recv(src, tagBcast+mask); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if relative+mask < p.size {
				dst := (relative + mask + root) % p.size
				subtree := mask
				if relative+2*mask > p.size {
					subtree = p.size - relative - mask
				}
				if err := p.Send(dst, tagBcast+mask, subtree*chunk); err != nil {
					return err
				}
			}
			mask >>= 1
		}
		// Allgather phase: ring circulation of the size-1 missing chunks.
		// Rounds are batched (several chunks per message) to keep the
		// event count manageable; the bandwidth term — each ring link
		// carries (size-1)*chunk bytes — is preserved exactly.
		next := (p.rank + 1) % p.size
		prev := (p.rank - 1 + p.size) % p.size
		rounds := p.size - 1
		if rounds > 8 {
			rounds = 8
		}
		total := (p.size - 1) * chunk
		for round := 0; round < rounds; round++ {
			share := total / rounds
			if round == rounds-1 {
				share = total - share*(rounds-1)
			}
			if err := p.Send(next, tagAllgather+round, share); err != nil {
				return err
			}
			if err := p.Recv(prev, tagAllgather+round); err != nil {
				return err
			}
		}
		return nil
	})
}

// Allreduce reduces bytes across all ranks and distributes the result
// (reduce to rank 0, then broadcast).
func (p *Proc) Allreduce(bytes int) error {
	return p.Collective("allreduce", func() error {
		relative := p.rank
		mask := 1
		for mask < p.size {
			if relative&mask == 0 {
				srcRel := relative | mask
				if srcRel < p.size {
					if err := p.Recv(srcRel, tagReduce+mask); err != nil {
						return err
					}
				}
			} else {
				dst := relative &^ mask
				if err := p.Send(dst, tagReduce+mask, bytes); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
		return p.bcastBinomial(0, bytes, tagBcast-1)
	})
}

// AlltoallvAlgorithm selects the all-to-all exchange schedule.
type AlltoallvAlgorithm int

// Alltoallv schedules.
const (
	// AlltoallvLinear posts sends to every peer in rank order before
	// receiving — OpenMPI's basic_linear. All senders flood rank 0's
	// port first, then rank 1's, ...: the incast pattern that overflows
	// commodity switch buffers at scale.
	AlltoallvLinear AlltoallvAlgorithm = iota
	// AlltoallvPairwise walks shifted rounds (dst = rank+r, src =
	// rank-r), keeping traffic one-to-one per round.
	AlltoallvPairwise
)

// Alltoallv exchanges bytesTo[i] bytes with every rank i (len(bytesTo)
// must equal Size). The schedule decides how hard the switch suffers.
func (p *Proc) Alltoallv(bytesTo []int, algo AlltoallvAlgorithm) error {
	if len(bytesTo) != p.size {
		return fmt.Errorf("simmpi: alltoallv counts length %d != size %d", len(bytesTo), p.size)
	}
	return p.Collective("alltoallv", func() error {
		switch algo {
		case AlltoallvPairwise:
			for off := 1; off < p.size; off++ {
				dst := (p.rank + off) % p.size
				src := (p.rank - off + p.size) % p.size
				if err := p.Send(dst, tagAlltoall+off, bytesTo[dst]); err != nil {
					return err
				}
				if err := p.Recv(src, tagAlltoall+off); err != nil {
					return err
				}
			}
			return nil
		default: // AlltoallvLinear
			for dst := 0; dst < p.size; dst++ {
				if dst == p.rank {
					continue
				}
				if err := p.Send(dst, tagAlltoall, bytesTo[dst]); err != nil {
					return err
				}
			}
			for src := 0; src < p.size; src++ {
				if src == p.rank {
					continue
				}
				if err := p.Recv(src, tagAlltoall); err != nil {
					return err
				}
			}
			return nil
		}
	})
}
