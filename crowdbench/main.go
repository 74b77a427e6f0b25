// Command crowdbench is crowdmax's end-to-end benchmark. It runs one
// fixed-content workload against the public API — the maxcrowdd service
// over loopback HTTP, or crowdmax.Session.Run in-process — checks every
// answer against the ground truth it generated, and prints the metrics as
// one JSON object on the last line of standard output:
//
//	crowdbench --workload svc-max --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the op list
// untraced and then traced and reports the per-layer metrics and the
// tracing overhead, writing the spans under .bench_build/trace. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// spansDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("crowdbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fl.Uint64("seed", 1, "workload seed: derives every instance and job seed")
	seconds := fl.Int("seconds", 10, "run length; sizes the op count as seconds × the workload's rate")
	trace := fl.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "crowdbench: need --workload (%s), --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := measure(w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: spansDir})
	if err != nil {
		fmt.Fprintln(stderr, "crowdbench:", err)
		return 1
	}
	for _, l := range rep.info {
		fmt.Fprintln(stdout, l)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "crowdbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the JSON object on the last line of standard output.
func (rep *report) result() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms}
}

// hostLine records the machine a result was measured on.
func hostLine(w workload, seed uint64) string {
	state := "in-process memory (no disk is timed)"
	if w.lib {
		state = "none (no storage layer)"
	}
	b, _ := json.Marshal(map[string]any{ // strings and numbers always encode
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel(),
		"state_fs":   state,
		"workload":   w.name,
		"seed":       seed,
	})
	return "host " + string(b)
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
