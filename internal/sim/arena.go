package sim

// tokenArena is a per-scheduler slab allocator for SignalTokens: tokens
// are carved from contiguous slabs and recycled through a free list, so
// a scheduler's steady-state token traffic touches no global state and
// allocates nothing once the slabs have grown to the design's live-token
// high-water mark.
//
// An arena is confined to its scheduler exactly as the scheduler is
// confined to one goroutine, so neither acquire nor release locks.
// Token ownership follows DELIVERY, not origin: a token acquired from
// scheduler A's arena and migrated across a shard boundary is released
// into the arena of the scheduler that delivers it. That keeps release
// single-writer under the shard engine — each scheduler's arena is only
// touched by whichever worker is running that scheduler's instant, and
// the engine's round barrier orders the rounds.
type tokenArena struct {
	free []*SignalToken
	slab []SignalToken
	next int // first uncarved slot of slab
}

// arenaMinSlab and arenaMaxSlab bound the doubling growth of slab sizes:
// small designs should not commit pages they never use, and a pathological
// design should grow linearly past the cap rather than doubling forever.
const (
	arenaMinSlab = 64
	arenaMaxSlab = 1 << 16
)

// reserve pre-sizes the arena so at least n tokens can be acquired
// without allocating mid-run. Controllers call it once, sized from the
// circuit, before the run starts.
func (a *tokenArena) reserve(n int) {
	if avail := len(a.free) + (len(a.slab) - a.next); avail >= n {
		return
	}
	a.slab = make([]SignalToken, n)
	a.next = 0
}

// acquire returns a zeroed arena-owned token.
//
//gocad:noalloc
func (a *tokenArena) acquire() *SignalToken {
	if n := len(a.free); n > 0 {
		t := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		return t
	}
	if a.next == len(a.slab) {
		a.grow()
	}
	t := &a.slab[a.next]
	a.next++
	t.arenaOwned = true
	return t
}

// grow replaces an exhausted slab with a doubled one (bounded by
// arenaMinSlab/arenaMaxSlab). Outlined from acquire and kept out of the
// inliner so the slab allocation stays attributed here, off acquire's
// //gocad:noalloc steady-state path.
//
//go:noinline
func (a *tokenArena) grow() {
	size := len(a.slab) * 2
	switch {
	case size < arenaMinSlab:
		size = arenaMinSlab
	case size > arenaMaxSlab:
		size = arenaMaxSlab
	}
	// The retired slab is not retained: its tokens live on through the
	// free list for as long as they circulate.
	a.slab = make([]SignalToken, size)
	a.next = 0
}

// release zeroes a token and returns it to the free list. The caller
// must not touch the token afterwards — it will be handed out again.
//
//gocad:noalloc
func (a *tokenArena) release(t *SignalToken) {
	*t = SignalToken{arenaOwned: true}
	a.free = append(a.free, t)
}
