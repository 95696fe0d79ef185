// Package fixture exercises the lockheld-rmi analyzer: RMI round trips
// (iplib stubs, rmi.Client methods) under a held sync.Mutex are
// flagged; server-side rmi types and fresh-state goroutines are not.
package fixture

import (
	"sync"

	"repro/internal/iplib"
	"repro/internal/rmi"
)

type gateway struct {
	mu     sync.Mutex
	client *iplib.IPClient
}

func underLock(g *gateway) (float64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.client.Fees() // want "while mutex g.mu is held"
}

func unlockFirst(g *gateway) (float64, error) {
	g.mu.Lock()
	g.mu.Unlock()
	return g.client.Fees()
}

func flushLocked(g *gateway) (float64, error) {
	return g.client.Fees() // want `\*Locked naming convention`
}

func goroutineOK(g *gateway, out chan<- float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() {
		v, _ := g.client.Fees()
		out <- v
	}()
}

func clientUnderLock(mu *sync.Mutex, c *rmi.Client) error {
	mu.Lock()
	defer mu.Unlock()
	return c.Close() // want "while mutex mu is held"
}

func rwLockHeld(mu *sync.RWMutex, c *rmi.Client) error {
	mu.RLock()
	defer mu.RUnlock()
	return c.Call("m", nil, nil) // want "while mutex mu is held"
}

// Non-blocking client accessors read local mux state, never the wire;
// consulting them inside a critical section is sanctioned.
func accessorsOK(mu *sync.Mutex, c *rmi.Client) (string, bool, int) {
	mu.Lock()
	defer mu.Unlock()
	return c.Session(), c.Dead() || c.Reconnects() > 0, c.PeakInFlight()
}

func serverSideOK(sess *rmi.Session, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	sess.Charge(1)
}

func encodeOK(mu *sync.Mutex, v rmi.BinaryAppender) []byte {
	mu.Lock()
	defer mu.Unlock()
	return rmi.EncodePayload(v)
}
