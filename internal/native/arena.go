package native

// The PPM model gives every processor a fast ephemeral memory of limited
// size whose contents are simply lost on a fault. arena is that memory on
// the native engine: a bump allocator owned by one worker, rewound at every
// capsule start — and therefore at every soft-fault replay — so whatever a
// capsule body took from it dies with the capsule. Gather(…, nil),
// GatherAt(…, nil) and Scratch serve their result buffers from here instead
// of the Go heap, which is what makes a graph leaf allocation-free (Slice
// needs no buffer: it returns a window onto the word memory).
//
// It grows by appending fresh chunks, never by moving one, so slices handed
// out earlier in the same capsule stay valid. The size is limited, like the
// model's: a request that would push the arena past arenaMax falls back
// to the Go heap, which bounds what a worker retains between runs.

const (
	arenaChunk = 1 << 12 // elements in the first chunk (32 KB of words)
	arenaMax   = 1 << 18 // elements a worker retains at most (2 MB of words)
)

// arena is a chunked bump allocator of T. The zero value is ready to use.
type arena[T any] struct {
	chunks [][]T
	cur    int // chunk being bumped
	off    int // elements of chunks[cur] handed out
	total  int // elements across all chunks
}

// reset rewinds the arena: everything handed out since the last reset is
// dead. A capsule that outgrew its chunk leaves several behind; they are
// folded into one of the combined size, so the steady state is a single
// chunk and alloc's first compare.
func (a *arena[T]) reset() {
	if len(a.chunks) > 1 {
		a.chunks = [][]T{make([]T, a.total)}
	}
	a.cur, a.off = 0, 0
}

// alloc returns n elements with unspecified contents (zeroed is the
// caller's job), capacity-clipped so an append cannot run into a neighbour.
func (a *arena[T]) alloc(n int) []T {
	if a.cur < len(a.chunks) {
		if c := a.chunks[a.cur]; n <= len(c)-a.off {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
	}
	return a.grow(n)
}

// grow opens a fresh chunk at least doubling the arena, or hands the request
// to the Go heap when that would exceed the ceiling.
func (a *arena[T]) grow(n int) []T {
	size := arenaChunk
	if a.total > size {
		size = a.total
	}
	for size < n {
		size *= 2
	}
	if a.total+size > arenaMax {
		return make([]T, n)
	}
	c := make([]T, size)
	a.chunks = append(a.chunks, c)
	a.total += size
	a.cur, a.off = len(a.chunks)-1, n
	return c[:n:n]
}
