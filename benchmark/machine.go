package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machineRecord is the environment stamp written into every result file, so
// two results are only ever compared knowing what produced them.
type machineRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Threads    int    `json:"tuner_threads"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitDesc    string `json:"git_describe"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`

	// TriadGBps is STREAM triad over 3×64 MiB arrays. Where the host reports
	// an L3 larger than that footprint (this box: 260 MiB) the figure is a
	// last-level-cache rate, not DRAM: bw_fraction means "vs. triad at that
	// size".
	TriadGBps    float64 `json:"triad_gbps"`
	TriadMiB     int     `json:"triad_array_mib"`
	TimerFloorNs float64 `json:"timer_floor_ns"`
	// NoiseCV is the coefficient of variation of a fixed calibration loop
	// re-run around the workload (before set-up, before and after measuring).
	NoiseCV float64 `json:"noise_cv"`
}

// tunerThreads is the thread count every tuner, pool and refblas instance of
// the benchmark gets, passed explicitly because the shipped model.json
// records threads: 1.
func tunerThreads() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func newMachineRecord(root string) machineRecord {
	m := machineRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Threads:    tunerThreads(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitDesc:    gitDescribe(root),
		L2:         cacheSize(2),
		L3:         cacheSize(3),
	}
	m.TimerFloorNs = timerFloorNs()
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// cacheSize reads cpu0's cache size at the given level from sysfs.
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i)
		lv, err := os.ReadFile(dir + "/level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + "/size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// gitDescribe stamps the commit when the tree is a git checkout; the
// driver's checkouts are not, and say so.
func gitDescribe(root string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = root
	// Never look for a repository above the checkout.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "not-a-git-checkout"
	}
	return strings.TrimSpace(string(out))
}

// timerFloorNs is the smallest non-zero difference two back-to-back clock
// reads report: nothing shorter can be timed without batching.
func timerFloorNs() float64 {
	floor := time.Duration(1 << 62)
	for i := 0; i < 20000; i++ {
		a := time.Now()
		d := time.Since(a)
		if d > 0 && d < floor {
			floor = d
		}
	}
	return float64(floor.Nanoseconds())
}

// triadGBps runs STREAM triad a[i] = b[i] + s·c[i] over three arrays of mib
// MiB each, split across threads goroutines, and returns the best of reps
// passes in GB/s (3 arrays × 8 bytes per element moved).
func triadGBps(mib, threads, reps int) float64 {
	n := mib << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		done := make(chan struct{}, threads)
		start := time.Now()
		for t := 0; t < threads; t++ {
			lo, hi := t*n/threads, (t+1)*n/threads
			go func() {
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
				done <- struct{}{}
			}()
		}
		for t := 0; t < threads; t++ {
			<-done
		}
		if g := 24 * float64(n) / time.Since(start).Seconds() / 1e9; g > best {
			best = g
		}
	}
	return best
}

// calibSink keeps the calibration loop's result live.
var calibSink float64

// calibrationLoopSec times a fixed floating-point loop (~2 ms, cache
// resident). Its run-to-run variation is the machine's noise, independent of
// any code under test.
func calibrationLoopSec() float64 {
	var buf [1024]float64
	for i := range buf {
		buf[i] = float64(i)
	}
	start := time.Now()
	acc := 0.0
	for r := 0; r < 2000; r++ {
		for i := range buf {
			acc += buf[i] * 1.0000001
		}
	}
	calibSink = acc
	return time.Since(start).Seconds()
}

// noiseProbe accumulates calibration-loop timings taken between phases.
type noiseProbe struct{ samples []float64 }

func (p *noiseProbe) sample() {
	for i := 0; i < 5; i++ {
		p.samples = append(p.samples, calibrationLoopSec())
	}
}

// resetPeakRSS clears the process's resident-set high-water mark so
// peak_rss_mb describes one workload even under -workload all. Kernels that
// refuse the write leave the mark cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
