package pipeline

import "math/bits"

// calendar is the simulator's event index (DESIGN.md §14.1): a hashed
// timing wheel over absolute cycle numbers (Varghese and Lauck, SOSP '87).
// It serves two clients that both key on "the cycle something becomes
// true":
//
//   - nextWake. Stages push a threshold at the moment they create it — a
//     completion cycle, a busy-until cycle, a port free cycle, a redirect
//     or line-fill arrival, a fetch-queue maturity — and next returns the
//     earliest one still ahead, instead of rescanning every uop, function
//     unit and port on each skip attempt.
//   - Operand wakeup (wakeup.go). An IQ entry whose producers have all
//     issued is linked at the cycle its last operand arrives, and
//     releaseReady marks it ready when the clock reaches that cycle.
//
// The wheel is a calSlots-bit map, one bit per cycle modulo calSlots, with
// a one-word summary of its non-empty words, plus a per-slot intrusive list
// of IQ handles. Invariants the correctness argument rests on:
//
//   - Clear-on-advance: base is the last cycle the calendar has been
//     advanced to. Every bit and list of a cycle ≤ base has been cleared
//     (lists released), so a set bit at slot c&calMask stands for exactly
//     one cycle in (base, base+calSlots].
//   - Horizon: an event at or before base+calSlots goes into the wheel;
//     one beyond it goes into far, a min-heap that advance drains into the
//     wheel as the horizon reaches it. Every far event is later than every
//     wheel event, so far is the only ordered structure and it is empty
//     unless some latency exceeds calSlots cycles.
//   - Exact minimum: next(now) returns the least pushed threshold greater
//     than now, exactly what a min-heap of the same pushes would return.
//     Duplicate thresholds share one bit. Thresholds that no longer matter
//     (an overwritten fetchResumeAt, the completion of a recycled handle)
//     are kept: a spurious wakeup only shortens a skip, which is safe,
//     and keeping them makes every skip span independent of the index.
//   - Ready cycles are thresholds: every cycle an IQ entry is linked at is
//     a producer completion that schedule has already pushed, so the bit
//     link sets is already set (next is unchanged), a skip always lands
//     on the cycle, and releaseReady runs in it.
//
// The clock must not move backwards between clears: every push, link,
// next and advance passes a now at or after the last one's.
type calendar struct {
	base  int64
	sum   uint64                // bit w: words[w] != 0
	words [calSlots / 64]uint64 // bit c&calMask: an event at cycle c
	head  [calSlots]int32       // per slot: first handle linked there, plus one
	chain []int32               // per handle: the next handle on its slot list, plus one
	far   []farEvent            // min-heap on at of events beyond the horizon
	q     readyMarker           // where released handles go
}

const (
	calSlots = 1 << 12 // the wheel's horizon in cycles
	calMask  = calSlots - 1
)

// farEvent is an event beyond the wheel's horizon: a bare threshold
// (h < 0) or an IQ handle to release at cycle at.
type farEvent struct {
	at int64
	h  int32
}

// readyMarker receives the IQ handles the calendar releases.
type readyMarker interface{ MarkReady(handle int) }

// init sizes the calendar for handles [0, handles) released into q.
func (c *calendar) init(handles int, q readyMarker) {
	c.chain = make([]int32, handles)
	c.far = make([]farEvent, 0, handles)
	c.q = q
}

// clear empties the calendar and rewinds its clock to cycle 0, keeping
// its storage (Reset path). Linked handles are dropped unreleased.
func (c *calendar) clear() {
	for ws := c.sum; ws != 0; ws &= ws - 1 {
		w := bits.TrailingZeros64(ws)
		for m := c.words[w]; m != 0; m &= m - 1 {
			c.head[w<<6|bits.TrailingZeros64(m)] = 0
		}
		c.words[w] = 0
	}
	c.sum, c.base, c.far = 0, 0, c.far[:0]
}

// push indexes threshold v, dropping it if it is not in the future.
func (c *calendar) push(v, now int64) {
	if v <= now {
		return
	}
	if v-c.base <= calSlots {
		c.set(int(v) & calMask)
		return
	}
	c.pushFar(farEvent{at: v, h: -1})
}

// link schedules handle h for release at cycle at, which must be after now.
func (c *calendar) link(h int, at int64) {
	if at-c.base > calSlots {
		c.pushFar(farEvent{at: at, h: int32(h)})
		return
	}
	slot := int(at) & calMask
	c.set(slot)
	c.chain[h] = c.head[slot]
	c.head[slot] = int32(h) + 1
}

// next returns the earliest indexed threshold after now, or neverWakes.
func (c *calendar) next(now int64) int64 {
	if now > c.base {
		c.advance(now)
	}
	if c.sum == 0 {
		if len(c.far) > 0 {
			return c.far[0].at
		}
		return neverWakes
	}
	// The first set slot at or after now+1, circularly: slot now&calMask
	// itself stands for now+calSlots.
	from := int(now+1) & calMask
	w := from >> 6
	var slot int
	if m := c.words[w] >> (from & 63); m != 0 {
		slot = from + bits.TrailingZeros64(m)
	} else {
		ws := c.sum & (^uint64(1) << w) // words after w
		if ws == 0 {
			ws = c.sum // wrap around
		}
		w = bits.TrailingZeros64(ws)
		slot = w<<6 | bits.TrailingZeros64(c.words[w])
	}
	return now + 1 + int64((slot-from)&calMask)
}

// advance moves the clock to now: it clears every cycle in (base, now],
// releasing the handles linked there, then moves the far events the
// horizon now reaches into the wheel.
func (c *calendar) advance(now int64) {
	if now <= c.base {
		return
	}
	if now-c.base >= calSlots {
		c.take(0, calMask)
	} else if lo, hi := int(c.base+1)&calMask, int(now)&calMask; lo <= hi {
		c.take(lo, hi)
	} else {
		c.take(lo, calMask)
		c.take(0, hi)
	}
	c.base = now
	for len(c.far) > 0 && c.far[0].at-now <= calSlots {
		e := c.popFar()
		switch {
		case e.at > now && e.h >= 0:
			c.link(int(e.h), e.at)
		case e.at > now:
			c.set(int(e.at) & calMask)
		case e.h >= 0:
			c.q.MarkReady(int(e.h)) // the clock jumped past it
		}
	}
}

// take clears slots [lo, hi] of the wheel and releases their lists.
func (c *calendar) take(lo, hi int) {
	wlo, whi := lo>>6, hi>>6
	for ws := c.sum & (^uint64(0) << wlo) & (^uint64(0) >> (63 - whi)); ws != 0; ws &= ws - 1 {
		w := bits.TrailingZeros64(ws)
		m := c.words[w]
		if w == wlo {
			m &= ^uint64(0) << (lo & 63)
		}
		if w == whi {
			m &= ^uint64(0) >> (63 - hi&63)
		}
		if m == 0 {
			continue
		}
		if c.words[w] &^= m; c.words[w] == 0 {
			c.sum &^= 1 << w
		}
		for ; m != 0; m &= m - 1 {
			slot := w<<6 | bits.TrailingZeros64(m)
			for l := c.head[slot]; l != 0; {
				h := l - 1
				l = c.chain[h]
				c.q.MarkReady(int(h))
			}
			c.head[slot] = 0
		}
	}
}

func (c *calendar) set(slot int) {
	c.words[slot>>6] |= 1 << (slot & 63)
	c.sum |= 1 << (slot >> 6)
}

func (c *calendar) pushFar(e farEvent) {
	c.far = append(c.far, e)
	for i := len(c.far) - 1; i > 0; {
		p := (i - 1) / 2
		if c.far[p].at <= c.far[i].at {
			break
		}
		c.far[p], c.far[i] = c.far[i], c.far[p]
		i = p
	}
}

func (c *calendar) popFar() farEvent {
	top := c.far[0]
	n := len(c.far) - 1
	c.far[0] = c.far[n]
	c.far = c.far[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && c.far[l].at < c.far[m].at {
			m = l
		}
		if r < n && c.far[r].at < c.far[m].at {
			m = r
		}
		if m == i {
			return top
		}
		c.far[i], c.far[m] = c.far[m], c.far[i]
		i = m
	}
}
