// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time from a single process, checks every output,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	bash perfbench/run.sh --workload steady-event --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// profiling; with --trace 1 it reports the per-layer metrics of a traced
// run instead. README.md beside this file describes the workloads, the
// metrics and how to read a traced run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"mes/internal/codec"
)

const (
	// gcPercent is mesbench's collector setting, pinned so an inherited
	// GOGC cannot change what a run measures.
	gcPercent = 800
	// maxProcs caps GOMAXPROCS: every workload has one client, so more
	// processors only add collector parallelism that differs by machine.
	maxProcs = 2
	// profileDir holds the traced run's CPU profiles while they are
	// folded; it sits in the build directory run.sh creates.
	profileDir = ".bench_build"
)

// result is the benchmark's report, printed as its last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], time.Now())) }

func realMain(args []string, start time.Time) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: steady-event, family-detect or registry-full")
	seed := fs.Uint64("seed", 1, "seed the run's inputs derive from")
	seconds := fs.Int("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	setupChild := fs.Bool("setup-child", false, "time one cold set-up, print its seconds and exit (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	debug.SetGCPercent(gcPercent)
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	payload := payloadFor(*seed)

	if *setupChild {
		if _, err := warmUp(*seed, payload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(time.Since(start).Seconds())
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	run := timedRun
	if *trace == 1 {
		run = tracedRun
	}
	res, err := run(w, *seed, payload, budget, start, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// passStats are one pass's measurements.
type passStats struct {
	seconds    float64
	allocMB    float64
	heapLiveMB float64
	gcCycles   float64 // collections the pass triggered itself
	gcPauseMs  float64 // pauses of those and of the forced collection after the pass
	digest     string
	attempted  int
	failed     int
	firstErr   error
	trials     int
	syncMiss   int
	lat        []float64 // ms, by op
}

// passStride sets the op pass k of a trial workload begins with:
// k·passStride modulo the pass's ops.
const passStride = 389

// timedPass runs pass k of d after a forced collection. When prof is
// set, a CPU profile covers exactly the pass.
func timedPass(d driver, k int, prof io.Writer) (passStats, error) {
	rec := newPassRec(d.ops(), k*passStride)
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return passStats{}, err
		}
	}
	t0 := time.Now()
	d.pass(rec)
	el := time.Since(t0)
	if prof != nil {
		pprof.StopCPUProfile()
	}
	rec.checkSync()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	return passStats{
		seconds:    el.Seconds(),
		allocMB:    float64(after.TotalAlloc-before.TotalAlloc) / mib,
		heapLiveMB: float64(live.HeapAlloc) / mib,
		gcCycles:   float64(after.NumGC - before.NumGC),
		gcPauseMs:  float64(live.PauseTotalNs-before.PauseTotalNs) / 1e6,
		digest:     rec.sum(),
		attempted:  rec.attempted,
		failed:     rec.failed,
		firstErr:   rec.firstErr,
		lat:        rec.lat,
		trials:     rec.trials,
		syncMiss:   rec.syncMiss,
	}, nil
}

func passSeconds(p passStats) float64 { return p.seconds }

// series extracts one measurement from every pass.
func series(passes []passStats, f func(passStats) float64) []float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return vs
}

// tally accounts a run's ops across passes. Every pass repeats the same
// inputs, so a pass whose digest differs from the first pass's counts
// as one more failed op.
type tally struct {
	attempted, failed int
	trials, syncMiss  int
	digest            string
	err               error
}

func (t *tally) add(ps passStats) {
	t.attempted += ps.attempted
	t.failed += ps.failed
	t.trials += ps.trials
	t.syncMiss += ps.syncMiss
	if t.err == nil && ps.firstErr != nil {
		t.err = ps.firstErr
	}
	if t.digest == "" {
		t.digest = ps.digest
	} else if ps.digest != t.digest {
		t.failed++
		if t.err == nil {
			t.err = errors.New("a pass's outputs differ from the first pass's")
		}
	}
}

// report prints the preamble misses and names the failures on
// standard error.
func (t *tally) report(out io.Writer) {
	if t.trials > 0 {
		fmt.Fprintf(out, "  preamble check failed on %d of %d trials (%.2f%%; an op fails above %.0f%% in a pass)\n",
			t.syncMiss, t.trials, 100*float64(t.syncMiss)/float64(t.trials), maxSyncMissShare*100)
	}
	if t.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", t.failed, t.attempted, t.err)
	}
}

func (t *tally) result(m metricSet) *result {
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// timedRun measures the end-to-end metrics: cold set-up, then whole
// passes until the time budget is spent, with the other set-up samples
// taken between passes. Every pass repeats the same ops with the same
// inputs, so the host times are taken from each op's fastest repetition
// (fastest): a shared machine's neighbours slow it in phases that only
// add time, and the fastest repetition is the one they touched least
// (README.md has the measurements). setup_s follows the same reasoning
// (setupTime); the memory metrics repeat from pass to pass.
func timedRun(w workload, seed uint64, payload codec.Bits, budget time.Duration, start time.Time, out io.Writer) (*result, error) {
	if _, err := warmUp(seed, payload); err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}
	takeSetup := func() error {
		v, err := childSetup(context.Background(), seed)
		if err == nil {
			setups = append(setups, v)
		}
		return err
	}
	d, err := w.open(seed, payload)
	if err != nil {
		return nil, err
	}
	defer d.close()
	var t tally
	var passes []passStats
	var costs []float64
	var measured time.Duration
	for len(passes) == 0 || measured+time.Duration(passes[len(passes)-1].seconds*float64(time.Second)) <= budget {
		if len(setups) < setupSamples && measured >= budget*time.Duration(len(setups)-1)/time.Duration(setupSamples-1) {
			if err := takeSetup(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		ps, err := timedPass(d, len(passes), nil)
		if err != nil {
			return nil, err
		}
		measured += time.Since(t0)
		costs = fastest(costs, ps.lat)
		ps.lat = nil // kept, the op times would grow the live heap pass by pass
		passes = append(passes, ps)
		t.add(ps)
	}
	for len(setups) < setupSamples {
		if err := takeSetup(); err != nil {
			return nil, err
		}
	}
	st, err := d.sim()
	if err != nil {
		return nil, err
	}
	secs := series(passes, passSeconds)
	alloc := series(passes, func(p passStats) float64 { return p.allocMB })
	live := series(passes, func(p passStats) float64 { return p.heapLiveMB })
	m := metricSet{}
	m.put("setup_s", setupTime(setups), "s")
	m.put("pass_s", sum(costs)/1000, "s")
	m.put("trial_p50_ms", median(costs), "ms")
	m.put("trial_p99_ms", quantile(costs, 0.99), "ms")
	m.put("alloc_mb", median(alloc), "MiB")
	m.put("heap_live_mb", median(live), "MiB")
	m.put("sim_tr_kbps", st.trKbps, "kb/s")
	m.put("sim_ber_pct", st.berPct, "%")
	m.put("paper_tr_err_pct", st.paperErrPct, "%")
	fmt.Fprintf(out, "%s seed=%d: %d passes of %d ops, digest %.16s\n",
		w.name, seed, len(passes), len(costs), t.digest)
	for _, s := range []struct {
		name string
		vs   []float64
	}{{"setup_s", setups}, {"pass_wall_s", secs}, {"alloc_mb", alloc}, {"heap_live_mb", live}} {
		fmt.Fprintf(out, "  %-12s", s.name)
		for _, v := range s.vs {
			fmt.Fprintf(out, " %.6g", v)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  fastest repetition of each op: pass %.6g s, p50 %.6g ms, p99 %.6g ms over n=%d ops\n",
		sum(costs)/1000, median(costs), quantile(costs, 0.99), len(costs))
	t.report(out)
	return t.result(m), nil
}

// fastest folds a pass's op times (ms) into each op's fastest time so
// far. Op i of every pass has the same inputs, so its repetitions differ
// only in how much the machine's other load slowed them.
func fastest(costs, lat []float64) []float64 {
	if costs == nil {
		return slices.Clone(lat)
	}
	for i, v := range lat {
		costs[i] = min(costs[i], v)
	}
	return costs
}

// tracedRun measures the per-layer metrics. It alternates untraced and
// CPU-profiled passes for most of the budget, folds the profiles by
// layer, and then runs the layer drives.
func tracedRun(w workload, seed uint64, payload codec.Bits, budget time.Duration, _ time.Time, out io.Writer) (*result, error) {
	ws, err := warmUp(seed, payload)
	if err != nil {
		return nil, err
	}
	d, err := w.open(seed, payload)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(profileDir, "perfbench-prof-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var t tally
	var plain, traced []passStats
	var files []string
	t0 := time.Now()
	for len(traced) == 0 || time.Since(t0)+time.Duration((plain[len(plain)-1].seconds+traced[len(traced)-1].seconds)*float64(time.Second)) <= budget*7/10 {
		ps, err := timedPass(d, len(plain)+len(traced), nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ps)
		t.add(ps)
		file := filepath.Join(dir, "cpu"+strconv.Itoa(len(files))+".pb")
		ps, err = profiledPass(d, len(plain)+len(traced), file)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
		traced = append(traced, ps)
		t.add(ps)
	}

	m := metricSet{}
	shares, samples, err := foldProfiles(context.Background(), files)
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		m.put(l+".self_pct", shares[l], "%")
	}
	m.put("bench.profile_samples", float64(samples), "count")
	up, tp := mean(series(plain, passSeconds)), mean(series(traced, passSeconds))
	m.put("bench.untraced_pass_s", up, "s")
	m.put("bench.traced_pass_s", tp, "s")
	m.put("bench.trace_overhead_pct", (tp/up-1)*100, "%")
	m.put("runtime.gc_cycles", median(series(traced, func(p passStats) float64 { return p.gcCycles })), "count")
	m.put("runtime.gc_pause_ms", median(series(traced, func(p passStats) float64 { return p.gcPauseMs })), "ms")
	m.put("core.session_new_us", median(ws.sessionNew), "us")
	m.put("core.first_trial_ms", median(ws.firstTrial), "ms")
	if err := layerDrives(seed, payload, m); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s seed=%d traced: %d untraced + %d profiled passes, %d profile samples\n",
		w.name, seed, len(plain), len(traced), samples)
	t.report(out)
	return t.result(m), nil
}

// profiledPass runs one pass under a CPU profile written to file.
func profiledPass(d driver, k int, file string) (passStats, error) {
	f, err := os.Create(file)
	if err != nil {
		return passStats{}, err
	}
	ps, err := timedPass(d, k, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return ps, err
}
