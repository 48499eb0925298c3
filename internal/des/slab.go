package des

import (
	"cmp"
	"slices"
)

// Slab is an event owner's store of scheduled-event payloads: one entry per
// pending event, indexed by the slot the engine carries on the event (see
// AtSlot). The owner schedules every event with one cached handler that
// calls Take, so firing an event costs a slice index and scheduling
// allocates nothing once the slab has grown to the owner's peak pending
// depth. Entries freed by Take are recycled through a freelist. Because each
// entry keeps the fire time and ID the engine assigned it, the owner can
// list its own pending events for a checkpoint (Pending) without the engine
// keeping a second index of its queue.
//
// The zero value is an empty slab ready to use.
type Slab[T any] struct {
	entries []SlabEntry[T]
	free    []uint32
}

// SlabEntry is one pending payload with the absolute fire time and the
// EventID (sequence number) the engine assigned it. A zero ID marks a free
// entry.
type SlabEntry[T any] struct {
	Rec  T
	Time float64
	ID   EventID
}

// Schedule stores rec and schedules h at absolute time t on e, carrying the
// entry's slot. h must recover the payload with Take.
//
//simlint:hotpath
func (s *Slab[T]) Schedule(e *Engine, t float64, label string, h Handler, rec T) error {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = uint32(len(s.entries))
		s.entries = append(s.entries, SlabEntry[T]{})
	}
	id, err := e.AtSlot(t, label, h, slot)
	if err != nil {
		s.free = append(s.free, slot)
		return err
	}
	s.entries[slot] = SlabEntry[T]{Rec: rec, Time: t, ID: id}
	return nil
}

// Take removes and returns the payload of the event now firing on e. It
// must be called from the handler the payload was scheduled with, before
// that handler schedules anything (which could reuse the slot).
//
//simlint:hotpath
func (s *Slab[T]) Take(e *Engine) T {
	slot := e.FiringSlot()
	rec := s.entries[slot].Rec
	s.entries[slot] = SlabEntry[T]{} // free, and drop any references rec holds
	s.free = append(s.free, slot)
	return rec
}

// Pending returns the live entries in scheduling order (ascending ID), the
// order a restore must re-schedule them in for same-instant ties to break
// as they did originally.
func (s *Slab[T]) Pending() []SlabEntry[T] {
	var out []SlabEntry[T]
	for _, en := range s.entries {
		if en.ID != 0 {
			out = append(out, en)
		}
	}
	slices.SortFunc(out, func(a, b SlabEntry[T]) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
