package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// goldenDigestsPath is the repository's absolute oracle file, written by
// the root package's TestGoldenDigests -update. Its table2/<scenario>/
// cache-<state> entries are SHA-256 digests of Result.Fingerprint for
// the smallConfig runs below.
const goldenDigestsPath = "../../testdata/golden_digests.json"

// table2Golden returns the golden digest for one Table 2 scenario under
// one cache state (off, cold or warm).
func table2Golden(t *testing.T, sc Scenario, cache string) string {
	t.Helper()
	buf, err := os.ReadFile(goldenDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("table2/%s/cache-%s", sc, cache)
	want, ok := golden[key]
	if !ok {
		t.Fatalf("%s has no %s digest", goldenDigestsPath, key)
	}
	return want
}

// fingerprintDigest is the golden file's digest of a result: the SHA-256
// of its fingerprint.
func fingerprintDigest(res *Result) string {
	sum := sha256.Sum256([]byte(res.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// TestCodecParityMatrix pins every Table 2 scenario to its absolute
// golden fingerprint across the transport and engine knobs that change
// wire traffic shape — pipeline depth, estimation cache, shard count,
// shard workers. A knob may change how the wire codec's bytes are
// framed or scheduled, never what the simulation computes. `make lint`
// runs this matrix as a companion gate.
func TestCodecParityMatrix(t *testing.T) {
	scenarios := []struct {
		name     string
		scenario Scenario
	}{
		{"AL", AllLocal},
		{"ER", EstimatorRemote},
		{"MR", MultiplierRemote},
	}
	for _, sc := range scenarios {
		for _, depth := range []int{1, 8} {
			for _, cached := range []bool{false, true} {
				cache := "off"
				if cached {
					cache = "cold"
				}
				want := table2Golden(t, sc.scenario, cache)
				for _, shards := range []int{1, 4} {
					for _, workers := range []int{1, 0} {
						name := fmt.Sprintf("%s/depth=%d/cache=%v/shards=%d/workers=%d",
							sc.name, depth, cached, shards, workers)
						t.Run(name, func(t *testing.T) {
							cfg := smallConfig()
							cfg.InFlight = depth
							cfg.Shards = shards
							cfg.ShardWorkers = workers
							if cached {
								// A fresh cache per run: the cell covers the
								// cold-path traffic.
								cfg.Cache = NewEstimationCache()
							}
							res, err := Run(sc.scenario, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got := fingerprintDigest(res); got != want {
								t.Errorf("digest %s, golden %s", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// TestCodecParityWarmCache extends the matrix to the warm-cache wire
// path: a second run against an already-warmed shared cache serves
// estimation batches off the cache instead of the provider, and that
// reshaped traffic must still match the scenario's warm golden.
func TestCodecParityWarmCache(t *testing.T) {
	for _, sc := range []Scenario{AllLocal, EstimatorRemote, MultiplierRemote} {
		cfg := smallConfig()
		cfg.Cache = NewEstimationCache()
		if _, err := Run(sc, cfg); err != nil {
			t.Fatalf("%v warmup: %v", sc, err)
		}
		res, err := Run(sc, cfg)
		if err != nil {
			t.Fatalf("%v warm run: %v", sc, err)
		}
		if got, want := fingerprintDigest(res), table2Golden(t, sc, "warm"); got != want {
			t.Errorf("%v: warm digest %s, golden %s", sc, got, want)
		}
	}
}
