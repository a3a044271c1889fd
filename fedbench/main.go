// Command fedbench is the repository's benchmark: it runs one named
// FedZKT workload (see workload.go and README.md) for a fixed time and
// prints, as the last line of standard output, one JSON object with the
// run's end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).
//
// Every repetition runs in a fresh child process, so set-up, CPU time and
// peak RSS are never shared between repetitions; the reported value of a
// metric is its median over the repetitions of the run. Build and run it
// from the repository root with
//
//	bash fedbench/run.sh --workload paper10 --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process started by the benchmark to run one
// repetition; it holds "run" or "trace".
const childEnv = "FEDBENCH_CHILD"

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the flags shared by the benchmark and its children.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	tiny     bool
	workdir  string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: paper10, fleet1k, spill1k or loopback2")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input of the workload is generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the run repeats the workload")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink the workload to a few seconds (self-test size)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for temporary files, run records and traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if _, err := findWorkload(o.workload, o.seed, o.tiny); err != nil {
		return o, err
	}
	return o, nil
}

// minReps is the fewest repetitions a run makes, however short --seconds.
const minReps = 3

// repSeed is the seed repetition rep of a run with seed generates its
// workload from. Each repetition draws a fresh federation (data, model
// initialisation, client sampling), so a run's medians average over
// several draws rather than repeating one.
func repSeed(seed, rep uint64) uint64 { return seed*1000 + rep }

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is written to <workdir>/runs for every run: the host, every
// repetition's outcome, and the reported result.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Trace    int        `json:"trace"`
	Host     hostInfo   `json:"host"`
	Untraced []*outcome `json:"untraced"`
	Traced   []*outcome `json:"traced,omitempty"`
	Problems []string   `json:"problems,omitempty"`
	Result   result     `json:"result"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 2
	}
	rec, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stdout, "# check failed:", p)
	}
	h := rec.Host
	fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d reps=%d gomaxprocs=%d nproc=%d cpu=%q go=%s rev=%s steal=%.4f\n",
		rec.Workload, rec.Seed, rec.Trace, len(rec.Untraced), h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.Revision, h.StealShare)
	if len(rec.Untraced) > 0 {
		u := rec.Untraced[0]
		fmt.Fprintf(stdout, "# fingerprint=%s global_acc=%v mean_device_acc=%v\n", u.Fingerprint, u.GlobalAcc, u.MeanDeviceAcc)
	}
	path := filepath.Join(o.workdir, "runs", fmt.Sprintf("%s-seed%d-trace%d-%d.json", o.workload, o.seed, o.trace, time.Now().UnixNano()))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# record=%s\n", path)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench repeats the workload in fresh child processes until the run's
// time is spent and reduces the repetitions to one result.
func bench(o options, stderr io.Writer) (*runRecord, error) {
	tmp := filepath.Join(o.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	rec := &runRecord{Workload: o.workload, Seed: o.seed, Trace: o.trace, Host: describeHost()}
	ticks := readCPUTicks()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for rep := uint64(0); rep < minReps || time.Now().Before(deadline); rep++ {
		u, err := spawn(o, "run", repSeed(o.seed, rep), stderr)
		if err != nil {
			return nil, err
		}
		rec.Untraced = append(rec.Untraced, u)
		if o.trace == 1 {
			t, err := spawn(o, "trace", repSeed(o.seed, rep), stderr)
			if err != nil {
				return nil, err
			}
			t.Metrics["trace.overhead"] = t.Metrics["trace.run_s"] / u.Metrics["run_s"]
			rec.Traced = append(rec.Traced, t)
		}
	}
	rec.Host.StealShare = stealShare(ticks, readCPUTicks())
	rec.Problems = checkRun(o, rec)

	res := result{Correct: len(rec.Problems) == 0, Metrics: map[string]metricValue{}}
	for _, r := range append(append([]*outcome(nil), rec.Untraced...), rec.Traced...) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	defs, reps := endToEnd, rec.Untraced
	if o.trace == 1 {
		defs, reps = perLayer, rec.Traced
	}
	for _, d := range defs {
		var vals []float64
		for _, r := range reps {
			v, ok := r.Metrics[d.name]
			if !ok {
				return nil, fmt.Errorf("repetition did not report metric %s", d.name)
			}
			vals = append(vals, v)
		}
		res.Metrics[d.name] = metricValue{Value: median(vals), Unit: d.unit}
	}
	rec.Result = res
	return rec, nil
}

// checkRun collects every failed output check of the run: each
// repetition's own checks and, for a traced run, the replay's fidelity to
// the program's own round engine on the same seed.
func checkRun(o options, rec *runRecord) []string {
	var problems []string
	for _, r := range append(append([]*outcome(nil), rec.Untraced...), rec.Traced...) {
		for _, p := range r.Problems {
			problems = append(problems, fmt.Sprintf("seed %d (traced=%v): %s", r.Seed, r.Traced, p))
		}
	}
	w, _ := findWorkload(o.workload, o.seed, o.tiny)
	for i, t := range rec.Traced {
		u := rec.Untraced[i]
		same := t.Fingerprint == u.Fingerprint
		if w.net {
			// The networked engine's history is compared by its accuracy
			// series, the part a device's timing cannot move.
			same = reflect.DeepEqual(t.GlobalAccSeries, u.GlobalAccSeries)
		}
		if !same {
			problems = append(problems, fmt.Sprintf("seed %d: traced replay diverges from the untraced run: fingerprint %s vs %s, global acc %v vs %v",
				u.Seed, t.Fingerprint, u.Fingerprint, t.GlobalAccSeries, u.GlobalAccSeries))
		}
	}
	return problems
}

// spawn runs one repetition in a fresh process and decodes its outcome
// from the last line of its standard output.
func spawn(o options, mode string, seed uint64, stderr io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(seed), "-workdir", o.workdir}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(exe, args...)
	tmp, err := filepath.Abs(filepath.Join(o.workdir, "tmp"))
	if err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+mode, "TMPDIR="+tmp)
	// A child never outlives the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repetition of %s: %w", mode, o.workload, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var oc outcome
	if err := json.Unmarshal([]byte(last), &oc); err != nil {
		return nil, fmt.Errorf("%s repetition of %s: decoding outcome: %w", mode, o.workload, err)
	}
	return &oc, nil
}

// childMain runs one repetition in this process and prints its outcome
// as one JSON line.
func childMain(mode string, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench child:", err)
		return 2
	}
	w, _ := findWorkload(o.workload, o.seed, o.tiny)
	tmp, err := os.MkdirTemp(filepath.Join(o.workdir, "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "fedbench child:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var oc *outcome
	switch mode {
	case "run":
		oc, err = runUntraced(w, tmp)
	case "trace":
		oc, err = runTraced(w, tmp, filepath.Join(o.workdir, "traces"))
	default:
		err = errors.New("unknown child mode " + mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fedbench child:", err)
		return 1
	}
	line, err := json.Marshal(oc)
	if err != nil {
		fmt.Fprintln(stderr, "fedbench child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
