package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark in MiB, read
// from /proc/self/status (VmHWM, reset by exec, so a launcher's own
// footprint never counts).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// The runtime/metrics this benchmark reads.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mMutexWait  = "/sync/mutex/wait/total:seconds"
)

// runtimeSample is one reading of the runtime counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	mutexWait  float64 // seconds
}

// runtimeReader reads runtime counters into reused buffers; one reader
// serves one goroutine.
type runtimeReader struct{ s []metrics.Sample }

func newRuntimeReader() *runtimeReader {
	return &runtimeReader{s: []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mMutexWait}}}
}

func (r *runtimeReader) read() runtimeSample {
	metrics.Read(r.s)
	return runtimeSample{
		allocBytes: r.s[0].Value.Uint64(),
		gcCycles:   r.s[1].Value.Uint64(),
		gcCPU:      r.s[2].Value.Float64(),
		mutexWait:  r.s[3].Value.Float64(),
	}
}

// allocBytes reads only the cumulative heap allocation counter.
func (r *runtimeReader) allocBytes() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}

// stamp names the machine and the code a number was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func newStamp(workload string, seed int64, trace int) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		SourceHash: sourceHash("."),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// gitCommit is HEAD of the checkout, or "none" when the checkout is not
// a git work tree (the source hash still names the code then). Git is
// not allowed to look for a repository above the checkout.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "--verify", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root (names
// and contents, in path order), skipping hidden directories such as the
// build cache.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
