package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is captured into every report so that a run disturbed by a
// noisy neighbour can be recognised and rerun rather than believed.
type environment struct {
	Commit        string   `json:"commit"`
	Seed          uint64   `json:"seed"`
	Seconds       int      `json:"seconds"`
	NumCPU        int      `json:"nproc"`
	GoMaxProcs    int      `json:"gomaxprocs"`
	GoVersion     string   `json:"go_version"`
	KernelBackend string   `json:"kernel_backend"`
	ServerFlags   []string `json:"server_flags"`
	Loops         int      `json:"loops"`
	// StealShare and IOWaitShare are the shares of all CPU time between the
	// start and the end of the measured part that the hypervisor took away
	// or that CPUs sat idle waiting for disk; LoadAvg1 is the 1-minute load
	// average at the end.
	StealShare  float64 `json:"cpu_steal_share"`
	IOWaitShare float64 `json:"cpu_iowait_share"`
	LoadAvg1    float64 `json:"loadavg_1m"`
}

func baseEnvironment(seed uint64, seconds int) environment {
	return environment{
		Commit:     commitHash(),
		Seed:       seed,
		Seconds:    seconds,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// commitHash is the revision stamped into the binary, else what git says,
// else "unknown" (the benchmark also runs from a plain source checkout).
func commitHash() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal, iowait float64
}

func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		t.total += v
		switch i {
		case 4:
			t.iowait = v
		case 7:
			t.steal = v
		}
	}
	return t
}

// noteInterference fills the interference fields from the CPU times taken
// before the measured part.
func (e *environment) noteInterference(before cpuTimes) {
	after := readCPUTimes()
	if total := after.total - before.total; total > 0 {
		e.StealShare = (after.steal - before.steal) / total
		e.IOWaitShare = (after.iowait - before.iowait) / total
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
}
