package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// layers are the buckets a CPU profile folds into, one per module of the
// repository plus:
//   - coro: the runtime's coroutine transfer (runtime.coro*, iter.Pull*,
//     and the runtime.mcall they switch through);
//   - gc: any sample with a runtime GC frame on its stack (mark workers,
//     assists, background sweeping and scavenging, write-barrier flushes);
//   - bench: the benchmark's own code;
//   - other: samples with no owning frame at all (scheduler, profiler,
//     syscalls), and packages of the module outside this list.
var layers = []string{
	"sim", "coro", "osmodel", "kobj", "vfs", "timing", "core", "codec",
	"detect", "metrics", "baseline", "experiments", "runner", "report",
	"gc", "bench", "other",
}

// frameLayer returns the layer that owns a function, or "" for runtime
// and standard-library code, whose samples the fold charges to the
// nearest owning caller.
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "runtime.coro"), strings.HasPrefix(fn, "iter.Pull"):
		return "coro"
	case strings.HasPrefix(fn, "mes/internal/"):
		pkg := fn[len("mes/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge")
}

// stackLayer assigns a sample, given its frames leaf first, to a layer:
// gc if any frame is the collector's, else the layer of the leaf-most
// frame that has one, else other.
func stackLayer(frames []string) string {
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
	}
	for _, f := range frames {
		if l := frameLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

// rawSample is one stack of a profile with its sample count.
type rawSample struct {
	count  int64
	frames []string // leaf first, inlined frames expanded
}

var (
	sampleLine = regexp.MustCompile(`^\s*(\d+)(?:\s+-?\d+)*:((?:\s+\d+)*)\s*$`)
	locLine    = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ (?:M=\d+ )?(?:\[F\] )?(.*)$`)
	lineFunc   = regexp.MustCompile(`^(.*) \S*:\d+:\d+ s=\d+`)
)

// parseRaw reads the text `go tool pprof -raw` prints: a Samples section
// of "count value: loc loc …" lines, leaf first, and a Locations section
// mapping each location to its function, with inlined callers on the
// following indented lines.
func parseRaw(raw string) ([]rawSample, error) {
	type sample struct {
		count int64
		locs  []int
	}
	var samples []sample
	locs := map[int][]string{}
	section, cur := "", -1
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ln := sc.Text()
		switch strings.TrimSpace(ln) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(ln), ":")
			continue
		}
		switch section {
		case "Samples":
			m := sampleLine.FindStringSubmatch(ln)
			if m == nil {
				continue // the value-type header and label lines
			}
			n, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				return nil, err
			}
			s := sample{count: n}
			for _, f := range strings.Fields(m[2]) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, err
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			if m := locLine.FindStringSubmatch(ln); m != nil {
				id, err := strconv.Atoi(m[1])
				if err != nil {
					return nil, err
				}
				cur = id
				ln = m[2]
			} else if cur < 0 {
				continue
			}
			if f := lineFunc.FindStringSubmatch(strings.TrimSpace(ln)); f != nil {
				locs[cur] = append(locs[cur], f[1])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := make([]rawSample, 0, len(samples))
	for _, s := range samples {
		r := rawSample{count: s.count}
		for _, id := range s.locs {
			r.frames = append(r.frames, locs[id]...)
		}
		out = append(out, r)
	}
	return out, nil
}

// foldProfiles merges CPU profiles with `go tool pprof -raw` and returns
// each layer's share of the samples in percent, and the sample count.
func foldProfiles(ctx context.Context, files []string) (map[string]float64, int64, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-raw"}, files...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	samples, err := parseRaw(string(raw))
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[stackLayer(s.frames)] += s.count
		total += s.count
	}
	pct := make(map[string]float64, len(layers))
	for _, l := range layers {
		pct[l] = float64(counts[l]) / float64(total) * 100
	}
	return pct, total, nil
}
