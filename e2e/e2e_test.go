// Package e2e smoke-tests the real deployment: a gocad-server process
// serving TCP on localhost and a gocad-sim process driving the Figure 2
// design against it, compared against the same design run with -local
// (in-process provider). The distributed run must report identical
// simulation results.
package e2e

import (
	"bufio"
	"errors"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTools compiles both binaries into a temp dir.
func buildTools(t *testing.T) (serverBin, simBin string) {
	t.Helper()
	dir := t.TempDir()
	serverBin = filepath.Join(dir, "gocad-server")
	simBin = filepath.Join(dir, "gocad-sim")
	for bin, pkg := range map[string]string{
		serverBin: "../cmd/gocad-server",
		simBin:    "../cmd/gocad-sim",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return serverBin, simBin
}

// startServer launches gocad-server on an ephemeral port and returns the
// bound address and key file path once it is accepting connections.
func startServer(t *testing.T, serverBin string) (addr, keyfile string) {
	t.Helper()
	keyfile = filepath.Join(t.TempDir(), "key.hex")
	cmd := exec.Command(serverBin, "-addr", "127.0.0.1:0", "-keyfile", keyfile)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
			}
		}
		// Drain the rest so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr = <-addrCh:
	case <-time.After(15 * time.Second):
		t.Fatal("gocad-server did not report its listen address in time")
	}
	return addr, keyfile
}

// resultLines extracts the deterministic result lines of a gocad-sim run:
// the products-observed line and the remote-power line. Timing, traffic,
// and billing lines legitimately differ between transports.
func resultLines(t *testing.T, out string) (products, power string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "simulated ") {
			products = trimmed
		}
		if strings.HasPrefix(trimmed, "remote power:") {
			power = trimmed
		}
	}
	if products == "" || power == "" {
		t.Fatalf("result lines missing from output:\n%s", out)
	}
	return products, power
}

func runSim(t *testing.T, simBin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(simBin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gocad-sim %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestDistributedRunMatchesLocal drives gocad-sim against a live
// gocad-server over localhost TCP, in both ER and MR configurations, and
// asserts the reported simulation results are identical to a local-only
// (in-process provider) run of the same design. -blocking keeps the
// estimation batch order deterministic so the comparison is exact.
func TestDistributedRunMatchesLocal(t *testing.T) {
	serverBin, simBin := buildTools(t)
	addr, keyfile := startServer(t, serverBin)

	for _, mode := range []struct {
		name string
		args []string
	}{
		{"ER", nil},
		{"MR", []string{"-mr"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			common := append([]string{"-width", "8", "-patterns", "30", "-blocking"}, mode.args...)
			remoteOut := runSim(t, simBin, append([]string{"-addr", addr, "-keyfile", keyfile}, common...)...)
			localOut := runSim(t, simBin, append([]string{"-local"}, common...)...)

			rProducts, rPower := resultLines(t, remoteOut)
			lProducts, lPower := resultLines(t, localOut)
			if rProducts != lProducts {
				t.Errorf("products differ:\n  tcp:   %s\n  local: %s", rProducts, lProducts)
			}
			if rPower != lPower {
				t.Errorf("power results differ:\n  tcp:   %s\n  local: %s", rPower, lPower)
			}
			if strings.Contains(remoteOut, "DEGRADED") {
				t.Errorf("distributed run degraded:\n%s", remoteOut)
			}
		})
	}
}

// TestServerSurvivesClientChurn runs several short sim sessions against
// one server process — sessions must be independent (fresh instance
// handles, separate bills) and the server must not wedge between them.
func TestServerSurvivesClientChurn(t *testing.T) {
	serverBin, simBin := buildTools(t)
	addr, keyfile := startServer(t, serverBin)
	var first string
	for i := 0; i < 3; i++ {
		out := runSim(t, simBin, "-addr", addr, "-keyfile", keyfile, "-width", "4", "-patterns", "10", "-blocking")
		_, power := resultLines(t, out)
		if i == 0 {
			first = power
		} else if power != first {
			t.Fatalf("session %d results differ from session 0:\n  %s\n  %s", i, power, first)
		}
		if !strings.Contains(out, "session bill:") {
			t.Errorf("session %d missing bill line:\n%s", i, out)
		}
	}
}

// TestSimRejectsUnknownNetProfile: a mistyped -net name must stop
// gocad-sim with a non-zero exit and a message naming the profile, not
// run the simulation with no network emulation.
func TestSimRejectsUnknownNetProfile(t *testing.T) {
	_, simBin := buildTools(t)
	out, err := exec.Command(simBin, "-local", "-net", "mars", "-width", "4", "-patterns", "2").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
		t.Fatalf("gocad-sim -net mars: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), `"mars"`) {
		t.Errorf("error output does not name the bad profile:\n%s", out)
	}
	if strings.Contains(string(out), "products observed") {
		t.Errorf("gocad-sim ran the simulation despite the bad profile:\n%s", out)
	}
}
