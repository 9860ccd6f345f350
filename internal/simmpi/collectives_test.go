package simmpi

// Collectives only the tests run: the workload generators of the
// equivalence and property suites, and the binomial reference that
// BcastLarge is measured against.

// Bcast broadcasts bytes from root to all ranks (binomial tree).
func (p *Proc) Bcast(root, bytes int) error {
	return p.Collective("bcast", func() error {
		return p.bcastBinomial(root, bytes, tagBcast)
	})
}

// Allgather distributes bytes from every rank to every rank (ring
// algorithm: size-1 rounds of neighbour forwarding).
func (p *Proc) Allgather(bytes int) error {
	return p.Collective("allgather", func() error {
		next := (p.rank + 1) % p.size
		prev := (p.rank - 1 + p.size) % p.size
		for round := 0; round < p.size-1; round++ {
			if err := p.Send(next, tagAllgather+round, bytes); err != nil {
				return err
			}
			if err := p.Recv(prev, tagAllgather+round); err != nil {
				return err
			}
		}
		return nil
	})
}
