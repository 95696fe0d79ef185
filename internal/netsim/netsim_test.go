package netsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestProfileOrdering(t *testing.T) {
	// The environments must be strictly ordered in cost for any message.
	for _, bytes := range []int{16, 1024, 65536} {
		dl := Local.Delay(bytes, nil)
		dn := LAN.Delay(bytes, nil)
		dw := WAN.Delay(bytes, nil)
		if !(dl < dn && dn < dw) {
			t.Errorf("%d bytes: local=%v lan=%v wan=%v not ordered", bytes, dl, dn, dw)
		}
	}
	if InProcess.Delay(1024, nil) != 0 {
		t.Error("in-process delay must be zero")
	}
}

func TestDelayGrowsWithSize(t *testing.T) {
	small := WAN.Delay(100, nil)
	big := WAN.Delay(100_000, nil)
	if big <= small {
		t.Errorf("delay not size-dependent: %v vs %v", small, big)
	}
}

func TestDelayJitterBounded(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	base := WAN.Delay(1000, nil)
	for i := 0; i < 100; i++ {
		d := WAN.Delay(1000, r)
		if d < base || d > base+WAN.Jitter {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, base, base+WAN.Jitter)
		}
	}
}

func TestRoundTripIsTwoDelays(t *testing.T) {
	rt := LAN.RoundTrip(1000, 2000, nil)
	if rt != LAN.Delay(1000, nil)+LAN.Delay(2000, nil) {
		t.Error("round trip not additive")
	}
}

func TestProfileByName(t *testing.T) {
	cases := []struct {
		name    string
		want    Profile
		wantErr bool
	}{
		{"none", InProcess, false},
		{"local", Local, false},
		{"LAN", LAN, false},
		{"WAN", WAN, false},
		{"mars", Profile{}, true},
		{"", Profile{}, true},
		{"wan", Profile{}, true}, // names are case-sensitive
		{"InProcess", Profile{}, true},
	}
	for _, c := range cases {
		got, err := ProfileByName(c.name)
		if (err != nil) != c.wantErr {
			t.Errorf("ProfileByName(%q) error = %v, want error %v", c.name, err, c.wantErr)
		}
		if got != c.want {
			t.Errorf("ProfileByName(%q) = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestMeterAccounting(t *testing.T) {
	var m Meter
	m.AddBlocked(100 * time.Millisecond)
	m.AddBlocked(50 * time.Millisecond)
	m.AddCall(1000)
	m.AddCall(500)
	if m.Blocked() != 150*time.Millisecond {
		t.Errorf("blocked = %v", m.Blocked())
	}
	if m.Calls() != 2 || m.Bytes() != 1500 {
		t.Errorf("calls=%d bytes=%d", m.Calls(), m.Bytes())
	}
	cpu, real := m.Split(200 * time.Millisecond)
	if real != 200*time.Millisecond || cpu != 50*time.Millisecond {
		t.Errorf("split = %v, %v", cpu, real)
	}
	// Blocked exceeding wall floors CPU at zero.
	cpu, _ = m.Split(100 * time.Millisecond)
	if cpu != 0 {
		t.Errorf("over-blocked cpu = %v, want 0", cpu)
	}
	m.Reset()
	if m.Blocked() != 0 || m.Calls() != 0 || m.Bytes() != 0 {
		t.Error("reset incomplete")
	}
}

func TestProfileDelayTable(t *testing.T) {
	tests := []struct {
		name    string
		profile Profile
		bytes   int
		want    time.Duration
	}{
		{"in-process-zero", InProcess, 4096, 0},
		{"local-latency-only", Local, 0, 50 * time.Microsecond},
		{"local-1kb", Local, 1024, 55 * time.Microsecond},
		{"lan-latency-only", LAN, 0, 500 * time.Microsecond},
		{"lan-2kb", LAN, 2048, 580 * time.Microsecond},
		{"wan-latency-only", WAN, 0, 12 * time.Millisecond},
		{"wan-half-kb-floor", WAN, 512, 12*time.Millisecond + 200*time.Microsecond},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.profile.Delay(tc.bytes, nil); got != tc.want {
				t.Errorf("%s.Delay(%d) = %v, want %v", tc.profile.Name, tc.bytes, got, tc.want)
			}
		})
	}
}

func TestMeterSplitTable(t *testing.T) {
	tests := []struct {
		name    string
		blocked time.Duration
		wall    time.Duration
		cpu     time.Duration
	}{
		{"no-blocking", 0, 100 * time.Millisecond, 100 * time.Millisecond},
		{"half-blocked", 50 * time.Millisecond, 100 * time.Millisecond, 50 * time.Millisecond},
		{"fully-blocked", 100 * time.Millisecond, 100 * time.Millisecond, 0},
		{"over-blocked-floors", 250 * time.Millisecond, 100 * time.Millisecond, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var m Meter
			m.AddBlocked(tc.blocked)
			cpu, real := m.Split(tc.wall)
			if real != tc.wall {
				t.Errorf("real = %v, want wall %v", real, tc.wall)
			}
			if cpu != tc.cpu {
				t.Errorf("cpu = %v, want %v", cpu, tc.cpu)
			}
		})
	}
}

func TestMeterConcurrentSafe(t *testing.T) {
	var m Meter
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				m.AddBlocked(time.Microsecond)
				m.AddCall(1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if m.Calls() != 8000 || m.Blocked() != 8000*time.Microsecond {
		t.Errorf("concurrent accounting lost updates: %d calls, %v", m.Calls(), m.Blocked())
	}
}

func TestWaitAccuracy(t *testing.T) {
	// Wait exists because time.Sleep rounds sub-millisecond delays up to
	// the runtime's timer granularity (~1.1ms observed), an order of
	// magnitude too coarse for the Local profile's ~110µs round trips.
	// Wait must never return early, and for delays well under the
	// granularity it must stay close to the target: the upper bound is
	// loose (scheduler preemption on a loaded CI box) but far below the
	// ~1.1ms a bare time.Sleep would cost.
	for _, d := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond, 2 * time.Millisecond} {
		// Take the best of a few runs so a single preemption cannot
		// flake the upper bound; the lower bound must hold on EVERY run.
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			Wait(d)
			got := time.Since(start)
			if got < d {
				t.Fatalf("Wait(%v) returned after %v — early return", d, got)
			}
			if got < best {
				best = got
			}
		}
		if limit := d + 5*time.Millisecond; best > limit {
			t.Errorf("Wait(%v) best of 5 took %v, want < %v", d, best, limit)
		}
	}

	// Zero and negative delays return immediately.
	start := time.Now()
	Wait(0)
	Wait(-time.Millisecond)
	if got := time.Since(start); got > time.Millisecond {
		t.Errorf("Wait(<=0) took %v, want immediate return", got)
	}
}
