package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run measured and how many of its operations failed.
type outcome struct {
	attempted, failed int
	firstErr          error
	names             []string // report order
	metrics           map[string]metricValue
	notes             map[string]string // extra text printed beside a metric
}

func (o *outcome) add(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics, o.notes = map[string]metricValue{}, map[string]string{}
	}
	o.names = append(o.names, name)
	o.metrics[name] = metricValue{v, unit}
}

// addTail reports a tail latency with its percentile and sample count.
func (o *outcome) addTail(name string, v, pct float64, n int) {
	o.add(name, v, "ms")
	o.notes[name] = fmt.Sprintf("p%.1f of %d samples", pct, n)
}

// attempt counts one operation: it fails if err is set or its output
// check does.
func (o *outcome) attempt(err error, check func() error) {
	o.attempted++
	if err == nil {
		err = check()
	}
	if err != nil {
		o.failed++
		o.noteErr(err)
	}
}

func (o *outcome) noteErr(err error) {
	if err != nil && o.firstErr == nil {
		o.firstErr = err
	}
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: -workload {%s} -seed n -seconds s -trace {0|1}\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, size: 1}
	printMeta(os.Stdout, *workload, cfg)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, out); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printMeta records the machine the figures come from.
func printMeta(w io.Writer, workload string, cfg config) {
	fmt.Fprintf(w, "meta workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeReport prints every metric by name with its unit, the failure
// count, and then the one-line JSON result.
func writeReport(w io.Writer, out *outcome) error {
	for _, name := range out.names {
		m := out.metrics[name]
		line := fmt.Sprintf("%-24s %14.6g %s", name, m.Value, m.Unit)
		if note := out.notes[name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%-24s %14.6g (%d of %d ops)\n", "error_rate", errRate, out.failed, out.attempted)
	if out.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", out.firstErr)
	}
	b, err := json.Marshal(report{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
