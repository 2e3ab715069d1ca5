// Command lokibench is the repository's benchmark: it runs one workload
// through the public loki.Open / Session.Run / Session.Resume API for a
// fixed time, checks every result, and prints each metric by name and
// unit, ending with one JSON line. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 the per-layer ones. DESIGN.md lists
// the workloads, the metrics and what each should move.
//
//	bash lokibench/run.sh --workload election-virtual --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root; journals, traces and result files go
// under .bench_out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       int    `json:"trace"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	JournalFS   string `json:"journal_fs"`
	Started     string `json:"started"`
}

func main() {
	name := flag.String("workload", "", "workload: election-virtual, quorum-matrix-journaled or election-udp-cluster")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	w, err := workloadNamed(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}

	outDir := filepath.Join(".bench_out", w.name, fmt.Sprintf("seed%d-trace%d", *seed, *trace))
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: filepath.Join(outDir, "work")}
	if err := os.RemoveAll(outDir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(err)
	}
	env := environment{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitRevision: gitRevision(), JournalFS: fsType(b.work), Started: time.Now().UTC().Format(time.RFC3339),
	}

	ctx := context.Background()
	var ms map[string]metric
	if *trace == 0 {
		ms, err = b.endToEnd(ctx)
	} else {
		ms, err = b.perLayer(ctx, outDir)
	}
	if err != nil {
		fatal(err)
	}
	if err := os.RemoveAll(b.work); err != nil {
		fatal(err)
	}
	res := result{Correct: len(b.problems) == 0 && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}

	fmt.Printf("lokibench %s seed=%d seconds=%d trace=%d\n", env.Workload, env.Seed, env.Seconds, env.Trace)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s rev=%s journal_fs=%s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GitRevision, env.JournalFS)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Printf("  %-32s %14.6g %s\n", "failed_share", float64(b.failed)/float64(max(b.attempted, 1)), "ratio")
	for _, p := range b.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	saved, err := json.MarshalIndent(struct {
		Env      environment          `json:"env"`
		Result   result               `json:"result"`
		Problems []string             `json:"problems,omitempty"`
		Samples  map[string][]float64 `json:"samples,omitempty"`
	}{env, res, b.problems, b.samples}, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, "result.json"), append(saved, '\n'), 0o644); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lokibench:", err)
	os.Exit(2)
}

// gitRevision names the checked-out commit, when there is one.
func gitRevision() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_DIR=.git") // never a repository above the tree
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir, from the longest mount point
// in /proc/self/mountinfo that contains it; fsync cost depends on it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := strings.ReplaceAll(f[4], `\040`, " ")
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), g[0]
		}
	}
	return fs
}
