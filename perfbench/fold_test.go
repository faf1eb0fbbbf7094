package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// protobuf writes the few wire shapes a pprof profile needs.
type protobuf []byte

func (b *protobuf) varint(v uint64) {
	for v >= 0x80 {
		*b = append(*b, byte(v)|0x80)
		v >>= 7
	}
	*b = append(*b, byte(v))
}

func (b *protobuf) uint(field int, v uint64) {
	b.varint(uint64(field) << 3)
	b.varint(v)
}

func (b *protobuf) bytes(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	*b = append(*b, p...)
}

func (b *protobuf) packed(field int, vs []uint64) {
	var p protobuf
	for _, v := range vs {
		p.varint(v)
	}
	b.bytes(field, p)
}

// fixtureSample is one stack of the fixture profile: location ids leaf
// first, and its sample count.
type fixtureSample struct {
	locs  []uint64
	count uint64
}

// fixtureProfile encodes a CPU profile (profile.proto) whose functions
// and stacks are given, each location holding the listed functions,
// innermost inlined frame first.
func fixtureProfile(funcs []string, locs [][]uint64, samples []fixtureSample) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p protobuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var v protobuf
		v.uint(1, vt[0])
		v.uint(2, vt[1])
		p.bytes(1, v) // sample_type
	}
	for _, s := range samples {
		var v protobuf
		v.packed(1, s.locs)
		v.packed(2, []uint64{s.count, s.count * 10_000_000})
		p.bytes(2, v) // sample
	}
	for i, fns := range locs {
		var v protobuf
		v.uint(1, uint64(i+1))
		v.uint(3, 0x1000+uint64(i)*16)
		for _, fn := range fns {
			var ln protobuf
			ln.uint(1, fn)
			ln.uint(2, 1)
			v.bytes(4, ln)
		}
		p.bytes(4, v) // location
	}
	for i, name := range funcs {
		var v protobuf
		v.uint(1, uint64(i+1))
		n := str(name)
		v.uint(2, n)
		v.uint(3, n)
		v.uint(4, str("fixture.go"))
		p.bytes(5, v) // function
	}
	for _, s := range strs {
		p.bytes(6, []byte(s)) // string_table
	}
	var pt protobuf
	pt.uint(1, 3)
	pt.uint(2, 4)
	p.bytes(11, pt) // period_type
	p.uint(12, 10_000_000)
	return p
}

// TestFoldProfiles folds a small fixed profile through `go tool pprof`
// and checks every layer's share against the stacks it was built from.
func TestFoldProfiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool pprof needs the go command on PATH")
	}
	funcs := []string{
		"mes/internal/sim.(*Kernel).Run",            // 1
		"runtime.mallocgc",                          // 2
		"mes/internal/core.(*Session).Run",          // 3
		"runtime.coroswitch_m",                      // 4
		"runtime.mcall",                             // 5
		"runtime.gcBgMarkWorker",                    // 6
		"runtime.scanobject",                        // 7
		"main.timedPass",                            // 8
		"runtime.futex",                             // 9
		"iter.Pull[go.shape.struct {}].func1",       // 10
		"mes/internal/detect.(*Analyzer).Analyze",   // 11
		"mes/internal/experiments.Detector",         // 12
		"mes/internal/realtime.Run",                 // 13
		"mes/internal/osmodel.(*Proc).SetEvent",     // 14
		"runtime.gcWriteBarrier2",                   // 15
		"mes/internal/kobj.(*Event).Set",            // 16
		"mes/internal/experiments.Registry.func1.1", // 17
	}
	// Location i+1 holds locs[i]: location 9 is detect inlined into
	// experiments, location 10 is runtime.futex, and so on.
	locs := [][]uint64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {11, 12}, {9}, {10}, {13}, {14}, {15}, {16}, {17}}
	samples := []fixtureSample{
		{[]uint64{1, 3}, 30},     // sim leaf under core
		{[]uint64{2, 3}, 12},     // runtime leaf charged to its caller, core
		{[]uint64{4, 5, 1}, 15},  // coroutine transfer under sim
		{[]uint64{7, 6}, 8},      // mark worker
		{[]uint64{14, 2, 16}, 2}, // write barrier under experiments: gc
		{[]uint64{10}, 5},        // no owning frame: other
		{[]uint64{2, 8}, 4},      // the benchmark's own code
		{[]uint64{9}, 6},         // detect, inlined into experiments
		{[]uint64{12}, 3},        // a module package outside the list: other
		{[]uint64{13, 16, 3}, 9}, // osmodel leaf under experiments and core
		{[]uint64{15, 13}, 5},    // kobj leaf under osmodel
		{[]uint64{2, 11}, 1},     // runtime leaf on a bare coroutine root
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "fixture.pb")
	if err := os.WriteFile(file, fixtureProfile(funcs, locs, samples), 0o644); err != nil {
		t.Fatal(err)
	}
	shares, total, err := foldProfiles(context.Background(), []string{file})
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("folded %d samples, want 100", total)
	}
	want := map[string]float64{
		"sim": 30, "core": 12, "coro": 15 + 1, "gc": 8 + 2, "other": 5 + 3,
		"bench": 4, "detect": 6, "osmodel": 9, "kobj": 5,
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s: %.4g%%, want %g%%", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g%%, want 100%%", sum)
	}
}
