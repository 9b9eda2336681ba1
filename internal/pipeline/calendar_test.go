package pipeline

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// releaseLog records the handles a calendar releases, in release order.
type releaseLog struct{ got []int }

func (r *releaseLog) MarkReady(h int) { r.got = append(r.got, h) }

// calendarRef is the test-only reference the calendar is checked against:
// a sorted multiset of pushed thresholds and the linked handles with their
// release cycles.
type calendarRef struct {
	thresholds []int64 // sorted
	linked     map[int]int64
}

func (r *calendarRef) push(v, now int64) {
	if v > now {
		i, _ := slices.BinarySearch(r.thresholds, v)
		r.thresholds = slices.Insert(r.thresholds, i, v)
	}
}

// link counts the release cycle as a threshold too: the calendar cannot
// tell a linked cycle from a pushed one.
func (r *calendarRef) link(h int, at, now int64) {
	r.linked[h] = at
	r.push(at, now)
}

// next drops every threshold at or before now and returns the least one
// left.
func (r *calendarRef) next(now int64) int64 {
	i, _ := slices.BinarySearch(r.thresholds, now+1)
	r.thresholds = r.thresholds[i:]
	if len(r.thresholds) == 0 {
		return neverWakes
	}
	return r.thresholds[0]
}

// due removes and returns, sorted, the linked handles whose cycle is at or
// before now.
func (r *calendarRef) due(now int64) []int {
	var hs []int
	for h, at := range r.linked {
		if at <= now {
			hs = append(hs, h)
			delete(r.linked, h)
		}
	}
	slices.Sort(hs)
	return hs
}

// TestCalendarMatchesSortedReference drives the calendar and the sorted
// reference with the same random stream of pushes, links, clock moves and
// clears. next must equal the reference exactly, and every advance must
// release exactly the linked handles the clock has reached. The stream
// covers pushes at or before now, around the horizon and far beyond it,
// slot wrap-around (the clock runs through many multiples of calSlots),
// clock jumps longer than the horizon, clears in mid-stream, and pushes
// made before the calendar has caught up with the clock.
func TestCalendarMatchesSortedReference(t *testing.T) {
	steps := 200_000
	if testing.Short() {
		steps = 20_000
	}
	const handles = 64
	for _, seed := range []uint64{1, 2, 0xCA1E, 0xBEEF} {
		t.Run(fmt.Sprintf("seed%x", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
			var log releaseLog
			var c calendar
			c.init(handles, &log)
			ref := calendarRef{linked: map[int]int64{}}
			var now int64
			// offset draws a threshold distance from now.
			offset := func() int64 {
				switch rng.IntN(8) {
				case 0:
					return -rng.Int64N(8) // at or before now
				case 1:
					return calSlots - 3 + rng.Int64N(7) // around the horizon
				case 2:
					return calSlots + rng.Int64N(4*calSlots) // beyond it
				default:
					return 1 + rng.Int64N(300)
				}
			}
			checkRelease := func(step int, what string) {
				t.Helper()
				want := ref.due(now)
				got := slices.Clone(log.got)
				slices.Sort(got)
				log.got = log.got[:0]
				if !slices.Equal(got, want) {
					t.Fatalf("step %d (%s, now %d): released %v, want %v", step, what, now, got, want)
				}
			}
			for step := 0; step < steps; step++ {
				switch op := rng.IntN(100); {
				case op < 45:
					v := now + offset()
					c.push(v, now)
					ref.push(v, now)
				case op < 60:
					h := rng.IntN(handles)
					if _, busy := ref.linked[h]; busy {
						continue
					}
					at := now + max(1, offset())
					c.link(h, at)
					ref.link(h, at, now)
				case op < 85:
					now += rng.Int64N(4) // small steps, often none
				case op < 95:
					now += rng.Int64N(2 * calSlots) // up to two horizons
				case op < 99:
					c.advance(now)
					checkRelease(step, "advance")
				default:
					c.clear()
					now = 0
					ref = calendarRef{linked: map[int]int64{}}
					log.got = log.got[:0]
				}
				// Query on a third of the steps only, so pushes and links
				// also meet a calendar whose clock lags now.
				if rng.IntN(3) != 0 {
					continue
				}
				got, want := c.next(now), ref.next(now)
				if got != want {
					t.Fatalf("step %d: next(%d) = %d, reference says %d", step, now, got, want)
				}
				checkRelease(step, "next")
			}
		})
	}
}

// TestCalendarClearEmpties: after clear, a calendar that held wheel
// thresholds, far thresholds and linked handles reports no wake and
// releases nothing, however far the clock then moves.
func TestCalendarClearEmpties(t *testing.T) {
	var log releaseLog
	var c calendar
	c.init(4, &log)
	c.push(5, 0)
	c.push(calSlots+100, 0)
	c.link(1, 7)
	c.link(2, 3*calSlots)
	c.clear()
	if got := c.next(0); got != neverWakes {
		t.Fatalf("next after clear = %d, want neverWakes", got)
	}
	c.advance(10 * calSlots)
	if len(log.got) != 0 {
		t.Fatalf("clear left handles %v linked", log.got)
	}
}
