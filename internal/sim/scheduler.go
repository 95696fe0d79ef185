package sim

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/signal"
)

// SchedulerID uniquely identifies a scheduler instance for the lifetime of
// the process. Modules use it to address their per-scheduler state tables,
// which is what lets many schedulers run over the same design without
// interference.
type SchedulerID uint64

var schedulerIDs atomic.Uint64

// ErrEventLimit is returned by a run when the configured event budget is
// exhausted — the guard against nonterminating designs (e.g. zero-delay
// combinational loops).
var ErrEventLimit = errors.New("sim: event limit exceeded")

// scheduledToken pairs a token with a sequence number so that tokens
// posted at the same instant are delivered in posting order, keeping runs
// deterministic.
type scheduledToken struct {
	tok Token
	seq uint64
}

// tokenQueue is a binary min-heap ordered by (time, seq), with inlined
// index-based sift operations — the event store's spill lane, carrying
// generic tokens and far-future signal tokens (calendar.go). The
// container/heap interface funnels every element through `any` on
// Push/Pop, which boxes the scheduledToken — one heap allocation per
// posted token; the direct sift-up/sift-down below keeps the element a
// plain struct.
type tokenQueue []scheduledToken

func (q tokenQueue) less(i, j int) bool {
	if q[i].tok.When() != q[j].tok.When() {
		return q[i].tok.When() < q[j].tok.When()
	}
	return q[i].seq < q[j].seq
}

// siftUp restores the heap property after appending at index i.
func (q tokenQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// siftDown restores the heap property after replacing the root.
func (q tokenQueue) siftDown(i int) {
	n := len(q)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if right := kid + 1; right < n && q.less(right, kid) {
			kid = right
		}
		if !q.less(kid, i) {
			return
		}
		q[i], q[kid] = q[kid], q[i]
		i = kid
	}
}

// push inserts a scheduled token.
func (q *tokenQueue) push(it scheduledToken) {
	*q = append(*q, it)
	q.siftUp(len(*q) - 1)
}

// popMin removes and returns the earliest (time, seq) token.
func (q *tokenQueue) popMin() scheduledToken {
	old := *q
	it := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = scheduledToken{} // release the Token for GC
	next := old[:n]
	*q = next
	next.siftDown(0)
	return it
}

// InstantHook is invoked by the scheduler when a simulation time instant
// completes (all tokens at that time have been handled, and either the
// queue is empty or the next token is strictly later). This is the point
// where the estimation controller delivers estimation tokens to every
// module "at the end of each simulation time instant".
type InstantHook func(ctx *Context, completed Time)

// Scheduler owns one event store and delivers tokens in nondecreasing
// time order. A Scheduler is confined to a single goroutine; concurrency
// comes from running several Schedulers, never from sharing one.
//
// The store has two lanes (calendar.go): a 64-instant calendar of
// struct-of-arrays buckets for near-future signal tokens, and the spill
// min-heap for everything else. Both lanes order by the same (time, seq)
// key, so delivery order — and with it every fingerprint — is identical
// to the heap-only kernel's.
type Scheduler struct {
	id      SchedulerID
	seq     uint64
	now     Time
	started bool

	// sig is the calendar: bucket i holds the signal tokens of the unique
	// time t in [now, now+sigWindow) with t%64 == i, decomposed into flat
	// lanes. sigMask has bit i set iff bucket i is occupied.
	sig     [sigBuckets]sigBucket
	sigMask uint64

	// slab backs first-touch bucket lanes (growBucketLanes), amortizing
	// lane setup to five allocations per laneSlabBuckets first touches
	// instead of five per bucket.
	slab laneSlab

	// spill holds generic tokens (Self/Estimation/Control) and signal
	// tokens scheduled beyond the calendar window, ordered by (time, seq).
	spill tokenQueue

	// pending counts undelivered tokens across both lanes.
	pending int

	// interned assigns each destination handler a dense index so signal
	// lanes store 4-byte indices instead of interface headers. The
	// one-entry internLast cache keeps repeat posts off the map.
	interned      []Handler
	internIdx     map[Handler]uint32
	internLastH   Handler
	internLastIdx uint32

	// popScratch is the delivery carrier for calendar-stored signal
	// tokens: popBucket materializes lane entries into it, deliver hands
	// it to the handler, and the next pop overwrites it. It is not
	// arena-owned, so deliver's release path leaves it alone.
	popScratch SignalToken

	// overrides replaces the event handling of specific handlers for this
	// scheduler only. Virtual fault simulation uses this to make a faulty
	// module emit a fixed erroneous output pattern regardless of inputs.
	overrides map[Handler]Handler

	hooks []InstantHook

	// intercept, when non-nil, sees every token entering Post after the
	// causality check. Returning true consumes the token: it is neither
	// sequenced nor enqueued, and ownership passes to the intercept. A
	// sharding coordinator installs one to capture cross-scheduler posts
	// and re-inject them with globally assigned sequence stamps.
	intercept func(Token) bool

	// arena slab-allocates this scheduler's signal tokens
	// (Context.AcquireSignal); sized up front by ReserveTokens.
	arena tokenArena

	// Stats
	delivered uint64
	maxQueue  int

	// EventLimit bounds the number of delivered tokens per run;
	// 0 means the DefaultEventLimit.
	EventLimit uint64
}

// DefaultEventLimit is the per-run token budget used when a Scheduler's
// EventLimit is left at zero.
const DefaultEventLimit = 50_000_000

// NewScheduler returns an empty scheduler with a fresh unique identifier.
func NewScheduler() *Scheduler {
	return &Scheduler{
		id:        SchedulerID(schedulerIDs.Add(1)),
		overrides: make(map[Handler]Handler),
	}
}

// ID returns the scheduler's process-unique identifier.
func (s *Scheduler) ID() SchedulerID { return s.id }

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Delivered returns the number of tokens delivered so far.
func (s *Scheduler) Delivered() uint64 { return s.delivered }

// MaxQueueLen returns the high-water mark of the pending-token queue.
func (s *Scheduler) MaxQueueLen() int { return s.maxQueue }

// Override replaces target's event handling with replacement for this
// scheduler only. Passing a nil replacement removes the override. Other
// schedulers running over the same design are unaffected — this is the
// property that lets virtual fault simulation inject faults on a fresh
// scheduler with no reset or save/restore of the fault-free one.
func (s *Scheduler) Override(target, replacement Handler) {
	if replacement == nil {
		delete(s.overrides, target)
		return
	}
	s.overrides[target] = replacement
}

// AddInstantHook registers a hook called at the completion of every
// simulation time instant.
func (s *Scheduler) AddInstantHook(h InstantHook) { s.hooks = append(s.hooks, h) }

// Post enqueues a token. Posting a token in the past (before the
// scheduler's current time) is a programming error and panics, because it
// would silently corrupt causality.
func (s *Scheduler) Post(tok Token) {
	if tok.When() < s.now {
		panic(fmt.Sprintf("sim: token scheduled at %d, before current time %d", tok.When(), s.now))
	}
	if s.intercept != nil && s.intercept(tok) {
		return
	}
	s.seq++
	s.enqueue(tok, s.seq)
}

// SetPostIntercept installs (or, with nil, removes) the scheduler's post
// intercept. While installed, every token passing the causality check is
// offered to fn before sequencing; fn returning true consumes it.
func (s *Scheduler) SetPostIntercept(fn func(Token) bool) { s.intercept = fn }

// PostSequenced enqueues a token under a caller-assigned sequence stamp,
// bypassing the scheduler's own counter and the post intercept. This is
// the injection half of the sharding protocol: a coordinator that merged
// captured posts from several schedulers re-posts each one here with its
// globally agreed (time, seq) rank, so same-instant delivery order is
// identical to the order one scheduler would have produced. Stamps must
// be unique per (time, seq) pair; the causality rule still applies.
func (s *Scheduler) PostSequenced(tok Token, seq uint64) {
	if tok.When() < s.now {
		panic(fmt.Sprintf("sim: token scheduled at %d, before current time %d", tok.When(), s.now))
	}
	s.enqueue(tok, seq)
}

// NextEventTime returns the time of the earliest pending token, or
// ok=false when the store is empty — the lower-bound timestamp a
// conservative synchronization window is computed from. The earliest
// time is the minimum of the calendar's occupancy scan and the spill
// heap's root.
//
//gocad:noalloc
func (s *Scheduler) NextEventTime() (Time, bool) {
	ct, cok := s.sigMinTime()
	if len(s.spill) == 0 {
		return ct, cok
	}
	ht := s.spill[0].tok.When()
	if !cok || ht < ct {
		return ht, true
	}
	return ct, true
}

// PopDue removes and returns the earliest pending token together with
// its sequence stamp, provided it is scheduled exactly at t; ok=false
// when the store is empty or the head is later. Combined with Deliver
// this is the bounded-step API: an external coordinator drains one
// instant of one scheduler without ceding control of global time.
//
// When both lanes hold tokens due at t, the lower sequence stamp wins —
// the merge that keeps two-lane delivery order identical to the single
// heap's (time, seq) order.
//
//gocad:noalloc
func (s *Scheduler) PopDue(t Time) (Token, uint64, bool) {
	b := s.bucketFor(t)
	bucketDue := b.head < b.n && b.time == t
	spillDue := len(s.spill) > 0 && s.spill[0].tok.When() == t
	if bucketDue {
		if b.unsorted {
			sortBucket(b)
		}
		if !spillDue || b.seqs[b.head] < s.spill[0].seq {
			tok, seq := s.popBucket(b)
			return tok, seq, true
		}
	}
	if !spillDue {
		return nil, 0, false
	}
	it := s.spill.popMin()
	s.pending--
	return it.tok, it.seq, true
}

// Deliver dispatches one token exactly as the run loop would: overrides
// and tracing are honoured, the delivered counter advances, and
// arena-owned signal tokens are released. ctx must belong to this scheduler (nil
// uses a fresh context).
func (s *Scheduler) Deliver(ctx *Context, tok Token) {
	if ctx == nil {
		ctx = s.NewContext()
	}
	s.deliver(ctx, tok)
}

// AdvanceTo moves the scheduler's clock to t without delivering
// anything. Coordinators call it before stepping an instant so that
// handlers observing ctx.Now() — and the causality check guarding Post —
// see the global time. Moving the clock backwards panics.
func (s *Scheduler) AdvanceTo(t Time) {
	if s.started && t < s.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) behind current time %d", t, s.now))
	}
	s.started = true
	s.now = t
}

// Pending returns the number of tokens waiting across both lanes of the
// event store (calendar buckets plus the spill heap).
func (s *Scheduler) Pending() int { return s.pending }

// Context gives a handler controlled access to the scheduler that is
// delivering a token to it. A module can schedule a new token only when
// it receives one — i.e. only through the Context — and the new token is
// automatically joined to the same scheduler. This is the kernel's
// no-interference guarantee.
type Context struct {
	sched *Scheduler
	// Setup is the estimation setup active for this run (an *estim.Setup),
	// carried with every delivery so modules can retrieve the estimators
	// selected for them at runtime. It may be nil for setup-free runs.
	Setup any
	// Trace, when non-nil, receives one line per delivered token.
	Trace func(string)
}

// SchedulerID returns the identifier modules key their state tables by.
func (c *Context) SchedulerID() SchedulerID { return c.sched.id }

// Now returns the current simulation time.
func (c *Context) Now() Time { return c.sched.now }

// Post schedules a follow-up token on the same scheduler.
func (c *Context) Post(tok Token) { c.sched.Post(tok) }

// PostSignal is a convenience wrapper building and posting a SignalToken.
func (c *Context) PostSignal(t *SignalToken) { c.sched.Post(t) }

// AcquireSignal returns a SignalToken from the scheduler's slab arena,
// allocating nothing in the steady state. Two rules bind its users: the
// receiving handler must not retain the token past HandleToken (the
// delivering scheduler releases it back to its arena), and the poster
// must not re-post a token it has already posted. Hand-built
// &SignalToken{} values are never released and may be retained freely.
//
//gocad:noalloc
func (c *Context) AcquireSignal(t Time, dst Handler, port int, v signal.Value, src string) *SignalToken {
	tok := c.sched.arena.acquire()
	tok.T, tok.Dst, tok.Port, tok.Value, tok.Src = t, dst, port, v, src
	return tok
}

// Scheduler exposes the underlying scheduler, for controllers that need
// override management during a run (fault injection).
func (c *Context) Scheduler() *Scheduler { return c.sched }

// deliver dispatches one token, honouring per-scheduler overrides.
func (s *Scheduler) deliver(ctx *Context, tok Token) {
	s.delivered++
	dst := tok.Target()
	if len(s.overrides) != 0 {
		if repl, ok := s.overrides[dst]; ok {
			dst = repl
		}
	}
	if ctx.Trace != nil {
		if str, ok := tok.(fmt.Stringer); ok {
			ctx.Trace(str.String())
		} else {
			ctx.Trace(fmt.Sprintf("token@%d -> %s", tok.When(), dst.HandlerName()))
		}
	}
	dst.HandleToken(ctx, tok)
	if st, ok := tok.(*SignalToken); ok {
		if st.arenaOwned {
			// Release into the DELIVERING scheduler's arena: for tokens
			// that migrated across a shard boundary, ownership moves with
			// them, keeping every arena single-writer.
			s.arena.release(st)
		}
	}
}

// deliverScratch is deliver specialized for the calendar's materialized
// carrier: popBucket has just filled s.popScratch, so the destination
// is already in hand (no Target call) and no release applies (the
// scratch token is not arena-owned).
//
//gocad:noalloc
func (s *Scheduler) deliverScratch(ctx *Context) {
	s.delivered++
	dst := s.popScratch.Dst
	if len(s.overrides) != 0 {
		if repl, ok := s.overrides[dst]; ok {
			dst = repl
		}
	}
	if ctx.Trace != nil {
		ctx.Trace(s.popScratch.String())
	}
	dst.HandleToken(ctx, &s.popScratch)
}

// ReserveTokens pre-sizes the scheduler's token arena so n signal tokens
// can be live at once without a mid-run allocation. Controllers call it
// before a run, sized from the circuit (ports, handlers, queue depth).
// Calendar bucket lanes are NOT pre-carved here: most runs touch only a
// handful of distinct instants, so eagerly sizing all 64 buckets
// multiplied resident bytes (and with them GC pressure) for storage
// that never held an event. First-touched buckets carve their lanes
// from the scheduler's shared slab in growBucketLanes instead.
func (s *Scheduler) ReserveTokens(n int) {
	s.arena.reserve(n)
}

// RunOptions bounds a scheduler run.
type RunOptions struct {
	// Until stops the run before delivering any token strictly later than
	// this time. Zero means no time bound.
	Until Time
	// MaxInstants stops the run after this many distinct time instants
	// have completed. Zero means no instant bound. Virtual fault
	// simulation uses MaxInstants=1 for its single-instant injection runs.
	MaxInstants int
}

// Run delivers tokens in time order until the queue drains or a bound in
// opts is hit. ctx must have been created by the scheduler's Context
// method (or be nil, in which case a fresh context is used).
func (s *Scheduler) Run(ctx *Context, opts RunOptions) error {
	if ctx == nil {
		ctx = s.NewContext()
	}
	limit := s.EventLimit
	if limit == 0 {
		limit = DefaultEventLimit
	}
	return s.drain(ctx, opts, limit)
}

// drain is Run's instant loop (DESIGN.md §12), split from Run so the
// context fallback's allocation stays out of the annotated body. Each
// outer pass advances the clock to the earliest pending instant, then
// delivers tokens due at it — calendar bucket entries and spill-heap
// tokens merged by sequence stamp — until the instant is dry. The old
// kernel's batch scratch buffer is gone: calendar pops are O(1) lane
// reads with no re-sift to amortize, so pop-one-deliver-one is already
// the fast path.
//
//gocad:noalloc
func (s *Scheduler) drain(ctx *Context, opts RunOptions, limit uint64) error {
	budget := limit
	instants := 0
	for s.pending > 0 {
		next, _ := s.NextEventTime()
		if opts.Until != 0 && next > opts.Until {
			return nil
		}
		if next > s.now || !s.started {
			s.started = true
			s.now = next
		}
		// The bucket addressing s.now is stable for the whole instant, so
		// the merged bucket-vs-spill pop is inlined here rather than
		// calling hasDue+PopDue per token (PopDue stays the API for
		// external coordinators; this is the same merge, fused).
		b := s.bucketFor(s.now)
		for {
			bucketDue := b.head < b.n && b.time == s.now
			if bucketDue && b.unsorted {
				sortBucket(b)
			}
			spillDue := len(s.spill) > 0 && s.spill[0].tok.When() == s.now
			if !bucketDue && !spillDue {
				break
			}
			if budget == 0 {
				return eventLimitError(limit, s.now)
			}
			budget--
			if bucketDue && (!spillDue || b.seqs[b.head] < s.spill[0].seq) {
				s.popBucket(b)
				s.deliverScratch(ctx)
			} else {
				it := s.spill.popMin()
				s.pending--
				s.deliver(ctx, it.tok)
			}
		}
		// The loop above exits only when nothing remains at s.now — a
		// delivery that reposted into this instant keeps it running — so
		// the instant is complete and its hooks fire.
		for _, h := range s.hooks {
			h(ctx, s.now)
		}
		instants++
		if opts.MaxInstants != 0 && instants >= opts.MaxInstants {
			return nil
		}
	}
	return nil
}

// eventLimitError builds the runaway-simulation error. Outlined behind
// //go:noinline so its fmt boxing stays off drain's //gocad:noalloc
// steady-state path.
//
//go:noinline
func eventLimitError(limit uint64, now Time) error {
	return fmt.Errorf("%w (limit %d at time %d)", ErrEventLimit, limit, now)
}

// NewContext returns a Context bound to this scheduler.
func (s *Scheduler) NewContext() *Context { return &Context{sched: s} }

// Reset invokes ResetState on every handler that supports it, giving
// autonomous modules the chance to seed their first self-trigger for this
// scheduler.
func (s *Scheduler) Reset(ctx *Context, handlers []Handler) {
	if ctx == nil {
		ctx = s.NewContext()
	}
	for _, h := range handlers {
		if r, ok := h.(Resettable); ok {
			r.ResetState(ctx)
		}
	}
}
