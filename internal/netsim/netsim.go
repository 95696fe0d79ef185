// Package netsim emulates the three network environments of the paper's
// performance study — the same host (Local), the campus LAN, and the
// Bologna–Padova WAN — by computing deterministic, profile-dependent
// transfer delays that the RPC layer injects around each call, and by
// metering the time a client spends blocked on the (emulated) network.
// The CPU-time/real-time split of Table 2 is reconstructed from these
// meters: real time is wall-clock, CPU time is wall-clock minus blocked
// time.
//
// The absolute magnitudes are scaled down from 1999 reality so the full
// Table 2 grid reruns in seconds; the RATIOS between profiles follow the
// paper's measured environments (WAN round trips two orders of magnitude
// above local IPC, LAN in between).
package netsim

import (
	"fmt"
	"math/rand"
	mrand "math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"
)

// Profile characterizes one network environment.
type Profile struct {
	Name string
	// OneWay is the fixed latency added to each direction of a call.
	OneWay time.Duration
	// PerKB is the serialization delay per kilobyte transferred.
	PerKB time.Duration
	// Jitter is the maximum extra random delay per direction.
	Jitter time.Duration
}

// The three environments of Table 2, plus the no-RMI baseline.
var (
	// InProcess models a direct call with no RMI at all (the AL case).
	InProcess = Profile{Name: "none"}
	// Local runs client and server on the same host: RMI marshalling
	// without network transit.
	Local = Profile{Name: "local", OneWay: 50 * time.Microsecond, PerKB: 5 * time.Microsecond}
	// LAN is a lightly loaded campus network.
	LAN = Profile{Name: "LAN", OneWay: 500 * time.Microsecond, PerKB: 40 * time.Microsecond, Jitter: 200 * time.Microsecond}
	// WAN is a long-distance Internet path.
	WAN = Profile{Name: "WAN", OneWay: 12 * time.Millisecond, PerKB: 400 * time.Microsecond, Jitter: 4 * time.Millisecond}
)

// ProfileByName returns the profile with the given name ("none" selects
// InProcess). An unknown name is an error, not a silent InProcess run.
func ProfileByName(name string) (Profile, error) {
	for _, p := range []Profile{InProcess, Local, LAN, WAN} {
		if name == p.Name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("netsim: unknown network profile %q (want none, local, LAN or WAN)", name)
}

// Delay returns the emulated one-way transfer time for a message of the
// given size. r supplies jitter; a nil r means no jitter.
func (p Profile) Delay(bytes int, r *rand.Rand) time.Duration {
	d := p.OneWay + time.Duration(int64(p.PerKB)*int64(bytes)/1024)
	if p.Jitter > 0 && r != nil {
		d += time.Duration(r.Int63n(int64(p.Jitter)))
	}
	return d
}

// RoundTrip returns the emulated request+response delay.
func (p Profile) RoundTrip(reqBytes, respBytes int, r *rand.Rand) time.Duration {
	return p.Delay(reqBytes, r) + p.Delay(respBytes, r)
}

// EmulatedRoundTrip is the injected client-side delay for one completed
// call of the given byte volumes, with jitter drawn from the caller's
// seeded math/rand/v2 source (nil disables jitter). This is the quantity
// the RPC layer sleeps per call; on a pipelined transport each in-flight
// call sleeps its own EmulatedRoundTrip concurrently, so emulated
// latency OVERLAPS across in-flight calls — the wall-clock cost of N
// pipelined calls approaches one round trip plus N serialization times,
// not N round trips.
func (p Profile) EmulatedRoundTrip(sent, recvd int, jr *mrand.Rand) time.Duration {
	if p.OneWay == 0 && p.PerKB == 0 && p.Jitter == 0 {
		return 0
	}
	d := p.Delay(sent, nil) + p.Delay(recvd, nil)
	if p.Jitter > 0 && jr != nil {
		d += time.Duration(jr.Int64N(int64(p.Jitter)))
		d += time.Duration(jr.Int64N(int64(p.Jitter)))
	}
	return d
}

// sleepSlack is how early Wait hands off from time.Sleep to its
// yield-spin tail. The Go runtime's timer granularity rounds short
// sleeps up to roughly a millisecond on common kernels, so any sleep at
// or below the slack would overshoot by an order of magnitude; the
// slack must cover that rounding.
const sleepSlack = 1200 * time.Microsecond

// Wait blocks for the given emulated delay with sub-millisecond
// accuracy. time.Sleep alone cannot emulate the Local profile: its
// ~100µs round trips get rounded up to the runtime's timer granularity
// (~1.1ms observed), inflating an emulated-local scenario by 10× per
// call. Wait sleeps for all but the last sleepSlack of the delay —
// keeping long LAN/WAN delays off-CPU — then yields the processor in a
// loop until the deadline, bounding the busy tail to ~sleepSlack per
// call. Deadline-based timing keeps the total accurate even when the
// coarse sleep overshoots.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Until(deadline) > 0 {
		runtime.Gosched()
	}
}

// Meter accumulates a client's network accounting: how long it sat
// blocked on calls, how many calls it made, and how many bytes moved.
// Meters are safe for concurrent use (nonblocking estimation flushes from
// worker goroutines).
type Meter struct {
	blocked atomic.Int64 // nanoseconds
	calls   atomic.Int64
	bytes   atomic.Int64

	// Estimation-cache accounting: calls served locally from the
	// content-addressed cache instead of crossing the wire.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheSaved  atomic.Int64 // bytes that did not cross the wire

	// Replication accounting: failovers to another replica, hedged
	// estimation batches issued, and hedges that answered first.
	failovers atomic.Int64
	hedged    atomic.Int64
	hedgeWins atomic.Int64
}

// AddBlocked records time spent blocked on the network.
func (m *Meter) AddBlocked(d time.Duration) { m.blocked.Add(int64(d)) }

// AddCall records one completed call moving n bytes.
func (m *Meter) AddCall(n int) { m.calls.Add(1); m.bytes.Add(int64(n)) }

// AddCacheHit records one remote call avoided by the estimation cache,
// with the approximate request bytes that stayed local.
func (m *Meter) AddCacheHit(savedBytes int) {
	m.cacheHits.Add(1)
	m.cacheSaved.Add(int64(savedBytes))
}

// AddCacheMiss records one estimation-cache lookup that went remote.
func (m *Meter) AddCacheMiss() { m.cacheMisses.Add(1) }

// AddFailover records one replica failover (the session adopted a new
// provider endpoint after the current one died).
func (m *Meter) AddFailover() { m.failovers.Add(1) }

// AddHedgedBatch records one estimation batch re-issued to a second
// replica after the slow threshold; win reports whether the hedge
// answered before the primary.
func (m *Meter) AddHedgedBatch(win bool) {
	m.hedged.Add(1)
	if win {
		m.hedgeWins.Add(1)
	}
}

// Blocked returns the total time spent blocked.
func (m *Meter) Blocked() time.Duration { return time.Duration(m.blocked.Load()) }

// Calls returns the number of completed calls.
func (m *Meter) Calls() int64 { return m.calls.Load() }

// Bytes returns the total bytes transferred.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// CacheHits returns the number of batches served from the cache.
func (m *Meter) CacheHits() int64 { return m.cacheHits.Load() }

// CacheMisses returns the number of batch lookups that went remote.
func (m *Meter) CacheMisses() int64 { return m.cacheMisses.Load() }

// CacheBytesSaved returns the approximate request bytes kept off the
// wire by cache hits.
func (m *Meter) CacheBytesSaved() int64 { return m.cacheSaved.Load() }

// Failovers returns the number of replica failovers.
func (m *Meter) Failovers() int64 { return m.failovers.Load() }

// HedgedBatches returns the number of hedged estimation batches.
func (m *Meter) HedgedBatches() int64 { return m.hedged.Load() }

// HedgeWins returns the number of hedges that answered first.
func (m *Meter) HedgeWins() int64 { return m.hedgeWins.Load() }

// Reset zeroes the meter.
func (m *Meter) Reset() {
	m.blocked.Store(0)
	m.calls.Store(0)
	m.bytes.Store(0)
	m.cacheHits.Store(0)
	m.cacheMisses.Store(0)
	m.cacheSaved.Store(0)
	m.failovers.Store(0)
	m.hedged.Store(0)
	m.hedgeWins.Store(0)
}

// Split decomposes a measured wall-clock duration into the Table 2
// columns: real time (wall) and CPU time (wall minus blocked, floored at
// zero — overlapping nonblocking calls can accumulate more blocked time
// than the critical path).
func (m *Meter) Split(wall time.Duration) (cpu, real time.Duration) {
	cpu = wall - m.Blocked()
	if cpu < 0 {
		cpu = 0
	}
	return cpu, wall
}
