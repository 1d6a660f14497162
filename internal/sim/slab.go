package sim

// Slab is a free-list allocator handing out stable int32 handles —
// exactly the shape Event.ID wants. Freed slots are recycled LIFO, so
// once a run's peak population has been reached, Alloc/Free cycles
// allocate nothing.
//
// Backing storage is chunked: slots live in fixed-size blocks that
// never move, so pointers stay valid across growth and capacity costs
// one allocation per slabChunkSize slots instead of one per slot.
// That keeps a fresh slab's growth phase off the per-request
// allocation budget even when peak population tracks the run length
// (an overloaded queue parks a backlog proportional to arrivals).
//
// Alloc does not zero recycled slots: callers reset the fields they
// use (which lets them keep grown slices, e.g. a backoff-wait list,
// across reuses instead of reallocating them).
type Slab[T any] struct {
	chunks [][]T
	free   []int32
	len    int32 // slots materialized so far (high-water mark)
}

const (
	slabChunkShift = 10 // 1024 slots per chunk
	slabChunkSize  = 1 << slabChunkShift
	slabChunkMask  = slabChunkSize - 1
)

// Alloc returns a slot handle and its value. The value may hold a
// previous occupant's state; reset what you use.
func (s *Slab[T]) Alloc() (int32, *T) {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id, s.Get(id)
	}
	id := s.len
	if int(id)>>slabChunkShift == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunkSize))
	}
	s.len++
	return id, s.Get(id)
}

// Get returns the value at a live handle.
func (s *Slab[T]) Get(id int32) *T {
	return &s.chunks[id>>slabChunkShift][id&slabChunkMask]
}

// Free recycles a handle. The caller must not use the handle (or the
// pointer obtained from it) afterwards until Alloc hands it out again.
func (s *Slab[T]) Free(id int32) { s.free = append(s.free, id) }
