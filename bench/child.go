package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every measurement runs in a child process of its own: a fresh heap,
// GOMAXPROCS=1 from the first instruction, and a peak RSS that belongs
// to one workload. The parent only launches children and does
// arithmetic on what they print.

// childSpec is what the parent asks of a workload child.
type childSpec struct {
	Workload string
	Seed     uint64
	// Seconds is how long to keep iterating after the cold first
	// iteration when Iters is byTime; any other Iters is the exact
	// timed iteration count (0 for a cold launch).
	Seconds float64
	Iters   int
	Quick   bool
	Traced  bool
}

// byTime is the Iters value that lets Seconds bound the timed loop.
const byTime = -1

// iterSample is one timed iteration.
type iterSample struct {
	Seconds float64 `json:"s"`
	Mallocs uint64  `json:"mallocs"`
	Bytes   uint64  `json:"bytes"`
	// PeakRSSKB is the resident-set high-water mark over this iteration
	// alone; 0 where the kernel cannot restart the mark.
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// childResult is what a workload child prints, one JSON line.
type childResult struct {
	// SetupSeconds is child start (stamped by the parent just before
	// exec) to the end of the cold first iteration: runtime and package
	// init, config build, heap growth, page faults.
	SetupSeconds float64 `json:"setup_s"`
	// First is the cold iteration; Samples are the timed ones after it.
	First   iterSample   `json:"first"`
	Samples []iterSample `json:"samples"`
	// Attempted counts iterations started, Failed those that errored,
	// failed their verdict, or whose output differs from the first's.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Lines is the first iteration's simulated output, Digest its hash.
	Lines       []string `json:"lines"`
	Digest      string   `json:"digest"`
	Events      uint64   `json:"events"`
	NodeSeconds float64  `json:"node_seconds"`
	MaxRSSKB    int64    `json:"max_rss_kb"`
	// GC totals cover the timed iterations only.
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseNS uint64  `json:"gc_pause_ns"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	Spans     []span  `json:"spans,omitempty"`
}

func digestOf(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// runWorkloadChild is the child side: one cold iteration, then timed
// iterations of identical work until the budget is spent.
func runWorkloadChild(spec childSpec, startUnixNS int64) (*childResult, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	iter, err := w.build(spec.Seed, spec.Quick)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if spec.Traced {
		tr = newTracer()
	}
	res := &childResult{}
	var ms runtime.MemStats

	one := func(i int) iterSample {
		res.Attempted++
		tr.setIter(i)
		// Every iteration starts from a collected heap, as every solfleet
		// or solrollout invocation does: the collector then paces each
		// iteration the same way, and the resident peak is one run's, not
		// one run's plus the previous run's garbage.
		runtime.GC()
		perIter := resetPeakRSS()
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		root := tr.begin(0, "iteration")
		t0 := time.Now()
		out, err := iter(tr, root)
		d := time.Since(t0)
		tr.end(root)
		runtime.ReadMemStats(&ms)
		switch {
		case err != nil:
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("iteration %d: %v", i, err))
		case i == 0:
			res.Lines, res.Digest = out.lines, digestOf(out.lines)
			res.Events, res.NodeSeconds = out.events, out.nodeSeconds
		case digestOf(out.lines) != res.Digest:
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("iteration %d: output differs from iteration 0", i))
		}
		sample := iterSample{Seconds: d.Seconds(), Mallocs: ms.Mallocs - m0, Bytes: ms.TotalAlloc - b0}
		if perIter {
			sample.PeakRSSKB = peakRSSKB()
		}
		return sample
	}

	res.First = one(0)
	res.SetupSeconds = float64(time.Now().UnixNano()-startUnixNS) / 1e9

	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	loop0 := time.Now()
	for i := 1; ; i++ {
		if spec.Iters != byTime && i > spec.Iters {
			break
		}
		// Four timed iterations at least, so the fastest quarter is
		// never a quarter of nothing.
		if spec.Iters == byTime && i > 4 && time.Since(loop0).Seconds() >= spec.Seconds {
			break
		}
		res.Samples = append(res.Samples, one(i))
	}
	res.GCCycles, res.GCPauseNS = ms.NumGC-gc0, ms.PauseTotalNs-pause0
	res.GCCPUFrac = ms.GCCPUFraction

	res.MaxRSSKB = peakRSSKB()
	if tr != nil {
		res.Spans = tr.spans
	}
	return res, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident size (Linux: "5" to clear_refs), so that each
// iteration gets a peak of its own and the reported figure can be a
// median: one process-lifetime maximum moved 5-14% between runs on the
// workloads with ~10 MB heaps. It reports whether the kernel took it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSKB is this process's resident-set high-water mark. VmHWM
// belongs to this address space alone; ru_maxrss, the fallback, also
// remembers the parent's peak from before exec.
func peakRSSKB() int64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// launch re-executes this binary as a child with GOMAXPROCS=1 and
// decodes the JSON line it prints into out. args select the child
// mode; the start stamp is appended here, as late as possible.
func launch(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var stdout bytes.Buffer
	args = append(args, "-child-start", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %s: decoding result: %w", strings.Join(args, " "), err)
	}
	return nil
}

func launchWorkload(spec childSpec) (*childResult, error) {
	args := []string{
		"-child", spec.Workload,
		"-seed", strconv.FormatUint(spec.Seed, 10),
		"-seconds", strconv.FormatFloat(spec.Seconds, 'g', -1, 64),
		"-child-iters", strconv.Itoa(spec.Iters),
	}
	if spec.Quick {
		args = append(args, "-quick")
	}
	if spec.Traced {
		args = append(args, "-child-traced")
	}
	res := &childResult{}
	if err := launch(res, args...); err != nil {
		return nil, err
	}
	return res, nil
}
