package iq

import "fmt"

// Distributed models the §III-C2 adaptation of PUBS to a distributed issue
// queue (AMD Zen style): one queue per function-unit pool, each partitioned
// into priority and normal entries. The paper argues PUBS applies directly;
// this implementation makes the claim executable.
//
// Capacity and priority entries are divided across the per-pool queues;
// dispatch routes by the request's function-unit class, and select walks
// the queues in pool order sharing the machine's total issue width.
type Distributed struct {
	qs       []*Queue
	router   func(fu int) int
	grantBuf []Request // Select result buffer, reused across calls
}

// DistributedConfig sizes a distributed queue complex.
type DistributedConfig struct {
	NumQueues       int
	TotalSize       int // divided evenly; remainder to the first queues
	PriorityEntries int // divided round-robin (queue 0 first)
	AgeMatrix       bool
	// Router maps a Request.FU class to a queue index in [0, NumQueues).
	Router func(fu int) int
}

// NewDistributed builds the per-pool queues.
func NewDistributed(cfg DistributedConfig) *Distributed {
	if cfg.NumQueues <= 0 {
		panic("iq: distributed queue needs at least one queue")
	}
	if cfg.Router == nil {
		panic("iq: distributed queue needs a router")
	}
	if cfg.TotalSize < cfg.NumQueues {
		panic("iq: distributed queue smaller than queue count")
	}
	d := &Distributed{router: cfg.Router}
	sizes := make([]int, cfg.NumQueues)
	for i := range sizes {
		sizes[i] = cfg.TotalSize / cfg.NumQueues
	}
	for i := 0; i < cfg.TotalSize%cfg.NumQueues; i++ {
		sizes[i]++
	}
	prio := make([]int, cfg.NumQueues)
	for i := 0; i < cfg.PriorityEntries; i++ {
		prio[i%cfg.NumQueues]++
	}
	for i := 0; i < cfg.NumQueues; i++ {
		if prio[i] >= sizes[i] {
			prio[i] = sizes[i] - 1
		}
		d.qs = append(d.qs, New(Config{
			Size:            sizes[i],
			PriorityEntries: prio[i],
			Kind:            Random,
			AgeMatrix:       cfg.AgeMatrix,
		}))
	}
	return d
}

func (d *Distributed) queueFor(fu int) *Queue {
	i := d.router(fu)
	if i < 0 || i >= len(d.qs) {
		panic("iq: router returned out-of-range queue index")
	}
	return d.qs[i]
}

// DispatchPriority places r into its class queue's priority partition.
func (d *Distributed) DispatchPriority(r Request) bool {
	return d.queueFor(r.FU).DispatchPriority(r)
}

// DispatchNormal places r into its class queue's normal partition.
func (d *Distributed) DispatchNormal(r Request) bool {
	return d.queueFor(r.FU).DispatchNormal(r)
}

// DispatchWeighted applies the mode-switch-off policy within r's queue.
func (d *Distributed) DispatchWeighted(r Request, pick float64) bool {
	return d.queueFor(r.FU).DispatchWeighted(r, pick)
}

// MarkReady flags the queued request with this handle as ready in
// whichever per-pool queue holds it (see Queue.MarkReady).
func (d *Distributed) MarkReady(handle int) { d.holder(handle).MarkReady(handle) }

// UnmarkReady clears a queued request's ready flag (see Queue.UnmarkReady).
func (d *Distributed) UnmarkReady(handle int) { d.holder(handle).UnmarkReady(handle) }

// holder returns the per-pool queue holding handle. The pools are few, so
// probing each queue's handle index is cheaper than keeping a second one.
func (d *Distributed) holder(handle int) *Queue {
	for _, q := range d.qs {
		if _, ok := q.find(handle); ok {
			return q
		}
	}
	panic(fmt.Sprintf("iq: handle %d is not queued in any pool", handle))
}

// Visit visits every queued request, pool by pool (see Queue.Visit).
func (d *Distributed) Visit(visit func(r Request, ready bool)) {
	for _, q := range d.qs {
		q.Visit(visit)
	}
}

// Select walks the queues in pool order, sharing the total issue width.
// Each per-pool select still enforces the FU constraints via fuTryAlloc.
// The returned slice aliases an internal buffer and is only valid until the
// next Select call.
func (d *Distributed) Select(issueWidth int, fuTryAlloc func(int) bool) []Request {
	granted := d.grantBuf[:0]
	for _, q := range d.qs {
		if issueWidth <= len(granted) {
			break
		}
		granted = append(granted, q.Select(issueWidth-len(granted), fuTryAlloc)...)
	}
	d.grantBuf = granted
	return granted
}

// Occupancy sums the per-queue occupancies.
func (d *Distributed) Occupancy() int {
	n := 0
	for _, q := range d.qs {
		n += q.Occupancy()
	}
	return n
}

// PriorityFree sums free priority entries across queues.
func (d *Distributed) PriorityFree() int {
	n := 0
	for _, q := range d.qs {
		n += q.PriorityFree()
	}
	return n
}

// Queues exposes the per-pool queues (for tests and stats).
func (d *Distributed) Queues() []*Queue { return d.qs }

// Reset restores every per-pool queue to its constructed state.
func (d *Distributed) Reset() {
	for _, q := range d.qs {
		q.Reset()
	}
}

// CheckInvariants audits every per-pool queue.
func (d *Distributed) CheckInvariants() error {
	for i, q := range d.qs {
		if err := q.CheckInvariants(); err != nil {
			return fmt.Errorf("distributed queue %d: %w", i, err)
		}
	}
	return nil
}
