package main

import (
	"fmt"
	"time"

	"mes/internal/codec"
	"mes/internal/experiments"
	"mes/internal/kobj"
	"mes/internal/osmodel"
	"mes/internal/runner"
	"mes/internal/sim"
	"mes/internal/timing"
	"mes/internal/vfs"
)

// The layer drives time each layer through its own public entry points,
// with nothing of the layers above on top. Each reports the median of
// driveReps repetitions of a fixed amount of work.
const (
	driveReps    = 7
	simEvents    = 100_000 // sleeps per event-core repetition
	simRounds    = 50_000  // yield rounds per context-switch repetition
	resetSamples = 501     // timed Kernel.Reset calls
	osRounds     = 2_000   // round trips per syscall repetition
	codecBits    = 20_000  // payload of one codec round trip
	familyRounds = 3       // traced one-shot runs per substrate
)

// metricSet is a run's named metrics with their units.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) put(name string, v float64, unit string) { m[name] = metric{v, unit} }

// repeat runs fn n times and returns the median of what it measures.
func repeat(n int, fn func() (float64, error)) (float64, error) {
	vs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vs = append(vs, v)
	}
	return median(vs), nil
}

// simDrives times the event core on one reused kernel: a dense sleep
// load (ns per event), a two-process yield ping-pong (ns per context
// switch, which is mostly the runtime's coroutine transfer) and Reset.
func simDrives(m metricSet) error {
	k := sim.NewKernel()
	defer k.Release()
	ev, err := repeat(driveReps, func() (float64, error) {
		k.Reset()
		n := sim.SpawnBenchLoad(k, 4, simEvents)
		t0 := time.Now()
		err := k.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(n), err
	})
	if err != nil {
		return fmt.Errorf("sim event drive: %w", err)
	}
	sw, err := repeat(driveReps, func() (float64, error) {
		k.Reset()
		n := sim.SpawnPingPong(k, simRounds)
		t0 := time.Now()
		err := k.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(n), err
	})
	if err != nil {
		return fmt.Errorf("sim switch drive: %w", err)
	}
	rs, err := repeat(resetSamples, func() (float64, error) {
		sim.SpawnBenchLoad(k, 4, 64)
		if err := k.Run(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		k.Reset()
		return float64(time.Since(t0).Nanoseconds()), nil
	})
	if err != nil {
		return fmt.Errorf("sim reset drive: %w", err)
	}
	m.put("sim.event_ns", ev, "ns")
	m.put("sim.switch_ns", sw, "ns")
	m.put("sim.reset_ns", rs, "ns")
	return nil
}

// osDrive is osRounds iterations of a syscall pattern on a simulated
// machine: a round trip between two processes, or (b nil) one process's
// own loop. setup prepares the machine before the processes spawn.
type osDrive struct {
	metric string
	os     timing.OSKind
	setup  func(*osmodel.System) error
	a, b   func(p *osmodel.Proc, rounds int) error
}

// hold is how long a lock holder keeps its lock in the contention
// drives, long enough that the peer is queued behind it, so every
// acquisition is a handoff.
const hold = sim.Microsecond

// openDelay is how long the second process of a drive waits before
// opening the objects the first one creates.
const openDelay = 50 * sim.Microsecond

// lockDrive builds a contention drive: both processes take and release
// the same lock osRounds times, alternating through the fair handoff.
// open runs in each process before its loop.
func lockDrive[H any](name string, os timing.OSKind, setup func(*osmodel.System) error,
	open func(p *osmodel.Proc, first bool) (H, error), lock, unlock func(*osmodel.Proc, H) error) osDrive {
	body := func(first bool) func(*osmodel.Proc, int) error {
		return func(p *osmodel.Proc, rounds int) error {
			if !first {
				p.Sleep(openDelay) // let the first process create the object
			}
			h, err := open(p, first)
			if err != nil {
				return err
			}
			for i := 0; i < rounds; i++ {
				if err := lock(p, h); err != nil {
					return err
				}
				p.Sleep(hold)
				if err := unlock(p, h); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return osDrive{metric: rtMetric(name), os: os, setup: setup, a: body(true), b: body(false)}
}

func waitObject(p *osmodel.Proc, h kobj.Handle) error {
	r, err := p.WaitForSingleObject(h, osmodel.Infinite)
	if err == nil && r != osmodel.WaitObject0 {
		err = fmt.Errorf("wait returned %d", r)
	}
	return err
}

// signalPair builds a cooperation drive: the processes alternate
// through two objects, each signalling the peer's and waiting on its
// own. create makes an object in the first process, openObj opens it in
// the second; pre runs before each signal.
func signalPair(name string, os timing.OSKind,
	create func(p *osmodel.Proc, name string) (kobj.Handle, error),
	openObj func(p *osmodel.Proc, name string) (kobj.Handle, error),
	signal func(p *osmodel.Proc, h kobj.Handle) error,
	wait func(p *osmodel.Proc, h kobj.Handle) error,
	pre func(p *osmodel.Proc)) osDrive {
	a := func(p *osmodel.Proc, rounds int) error {
		ping, err := create(p, "ping")
		if err != nil {
			return err
		}
		pong, err := create(p, "pong")
		if err != nil {
			return err
		}
		p.Sleep(2 * openDelay) // let the peer open both and park
		for i := 0; i < rounds; i++ {
			pre(p)
			if err := signal(p, ping); err != nil {
				return err
			}
			if err := wait(p, pong); err != nil {
				return err
			}
		}
		return nil
	}
	b := func(p *osmodel.Proc, rounds int) error {
		p.Sleep(openDelay)
		ping, err := openObj(p, "ping")
		if err != nil {
			return err
		}
		pong, err := openObj(p, "pong")
		if err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			if err := wait(p, ping); err != nil {
				return err
			}
			pre(p)
			if err := signal(p, pong); err != nil {
				return err
			}
		}
		return nil
	}
	return osDrive{metric: rtMetric(name), os: os, a: a, b: b}
}

func rtMetric(name string) string { return "osmodel." + name + "_rt_ns" }

func noPre(*osmodel.Proc) {}

// settle gives a stateless condition variable's waiter time to park
// before the signal that must reach it.
func settle(p *osmodel.Proc) { p.Sleep(100 * sim.Microsecond) }

const sharePath = "/share/perfbench.lock"

func osDrives() []osDrive {
	return []osDrive{
		signalPair("event", timing.Windows,
			func(p *osmodel.Proc, n string) (kobj.Handle, error) { return p.CreateEvent(n, kobj.AutoReset, false) },
			(*osmodel.Proc).OpenEvent, (*osmodel.Proc).SetEvent, waitObject, noPre),
		lockDrive("mutex", timing.Windows, nil,
			func(p *osmodel.Proc, first bool) (kobj.Handle, error) {
				if first {
					return p.CreateMutex("m", false)
				}
				return p.OpenMutex("m")
			}, waitObject, (*osmodel.Proc).ReleaseMutex),
		lockDrive("semaphore", timing.Windows, nil,
			func(p *osmodel.Proc, first bool) (kobj.Handle, error) {
				if first {
					return p.CreateSemaphore("s", 1, 1)
				}
				return p.OpenSemaphore("s")
			}, waitObject, func(p *osmodel.Proc, h kobj.Handle) error { return p.ReleaseSemaphore(h, 1) }),
		signalPair("timer", timing.Windows,
			func(p *osmodel.Proc, n string) (kobj.Handle, error) { return p.CreateWaitableTimer(n, kobj.AutoReset) },
			(*osmodel.Proc).OpenWaitableTimer,
			func(p *osmodel.Proc, h kobj.Handle) error { return p.SetWaitableTimer(h, sim.Microsecond) },
			waitObject, noPre),
		lockDrive("filelockex", timing.Windows, nil,
			func(p *osmodel.Proc, first bool) (kobj.Handle, error) {
				if first {
					return p.CreateLockableFile("f", "/host/perfbench.txt", true)
				}
				return p.OpenLockableFile("f")
			},
			func(p *osmodel.Proc, h kobj.Handle) error { _, err := p.LockFileEx(h, true, false); return err },
			(*osmodel.Proc).UnlockFileEx),
		lockDrive("flock", timing.Linux,
			func(s *osmodel.System) error { _, err := s.CreateSharedFile(sharePath, 64, true, true); return err },
			func(p *osmodel.Proc, _ bool) (int, error) { return p.OpenFile(sharePath, false) },
			func(p *osmodel.Proc, fd int) error { return p.Flock(fd, vfs.LockEx, false) },
			func(p *osmodel.Proc, fd int) error { return p.Flock(fd, vfs.LockNone, false) }),
		lockDrive("futex", timing.Linux, nil,
			func(p *osmodel.Proc, first bool) (kobj.Handle, error) {
				if first {
					return p.CreateFutex("x")
				}
				return p.OpenFutex("x")
			}, (*osmodel.Proc).FutexLock, (*osmodel.Proc).FutexUnlock),
		signalPair("cond", timing.Linux,
			(*osmodel.Proc).CreateCond, (*osmodel.Proc).OpenCond, (*osmodel.Proc).CondSignal, (*osmodel.Proc).CondWait, settle),
		{metric: "osmodel.fsync_ns", os: timing.Linux, a: fsyncLoop},
	}
}

// fsyncLoop dirties a page of its own file and fsyncs it, the journal
// path the WriteSync channel measures.
func fsyncLoop(p *osmodel.Proc, rounds int) error {
	const path = "/share/perfbench.dat"
	if _, err := p.CreateHostFile(path, 4096, false, false); err != nil {
		return err
	}
	fd, err := p.OpenFile(path, true)
	if err != nil {
		return err
	}
	for i := 0; i < rounds; i++ {
		if err := p.WriteFile(fd, 1); err != nil {
			return err
		}
		if _, err := p.Fsync(fd); err != nil {
			return err
		}
	}
	return nil
}

// runOSDrive returns the host ns per iteration of d, the median over
// driveReps runs on one reused machine.
func runOSDrive(d osDrive, seed uint64) (float64, error) {
	cfg := osmodel.Config{Profile: timing.ProfileFor(d.os, timing.Local), Seed: seed}
	sys := osmodel.NewSystem(cfg)
	defer sys.Release()
	first := true
	return repeat(driveReps, func() (float64, error) {
		if !first {
			sys.Reset(cfg)
		}
		first = false
		if d.setup != nil {
			if err := d.setup(sys); err != nil {
				return 0, err
			}
		}
		var errA, errB error
		sys.Spawn("a", sys.Host(), func(p *osmodel.Proc) { errA = d.a(p, osRounds) })
		if d.b != nil {
			sys.Spawn("b", sys.Host(), func(p *osmodel.Proc) { errB = d.b(p, osRounds) })
		}
		t0 := time.Now()
		err := sys.Run()
		el := time.Since(t0)
		for _, e := range []error{err, errA, errB} {
			if e != nil {
				return 0, e
			}
		}
		return float64(el.Nanoseconds()) / osRounds, nil
	})
}

func osmodelDrives(seed uint64, m metricSet) error {
	for _, d := range osDrives() {
		v, err := runOSDrive(d, seed)
		if err != nil {
			return fmt.Errorf("%s drive: %w", d.metric, err)
		}
		m.put(d.metric, v, "ns")
	}
	return nil
}

// codecDrive times a payload's generation, packing into symbols and
// unpacking back.
func codecDrive(seed uint64, m metricSet) error {
	rng := sim.NewRNG(seed)
	var syms []int
	var back codec.Bits
	v, err := repeat(4*driveReps, func() (float64, error) {
		t0 := time.Now()
		b := codec.Random(rng, codecBits)
		var err error
		if syms, err = codec.AppendPack(syms[:0], b, 2); err != nil {
			return 0, err
		}
		if back, err = codec.AppendUnpack(back[:0], syms, 2); err != nil {
			return 0, err
		}
		el := time.Since(t0)
		if codec.Hamming(b, back) != 0 {
			return 0, fmt.Errorf("codec round trip changed the payload")
		}
		return us(el), nil
	})
	if err != nil {
		return fmt.Errorf("codec drive: %w", err)
	}
	m.put("codec.payload_us", v, "us")
	return nil
}

// familyDrive times family-detect's op layer by layer: the one-shot
// traced core.Run and detect.Analyze, familyRounds times per substrate.
func familyDrive(seed uint64, payload codec.Bits, m metricSet) error {
	var runUs, anaUs []float64
	entries, anaNs := 0, int64(0)
	pairs := feasiblePairs()
	for i := 0; i < familyRounds*len(pairs); i++ {
		p := pairs[i%len(pairs)]
		out, err := familyOp(p, payload, runner.TrialSeed(seed, i))
		if err != nil {
			return fmt.Errorf("family drive %v: %w", p, err)
		}
		runUs = append(runUs, us(out.run))
		anaUs = append(anaUs, us(out.analyze))
		entries += out.entries
		anaNs += out.analyze.Nanoseconds()
	}
	m.put("core.run_us", median(runUs), "us")
	m.put("detect.analyze_us", median(anaUs), "us")
	m.put("detect.entries_per_s", float64(entries)/(float64(anaNs)/1e9), "1/s")
	m.put("sim.trace_entries_per_kbit", float64(entries)/float64(familyRounds*len(pairs)*payloadBits/1000), "count")
	return nil
}

// registryDrive renders the registry once from cold memos, as a
// registry-full pass does, and reports each experiment's time.
func registryDrive(m metricSet) error {
	w := &registryFull{opt: registryOptions}
	rec := newPassRec(w.ops(), 0)
	w.pass(rec)
	if rec.firstErr != nil {
		return fmt.Errorf("registry drive: %w", rec.firstErr)
	}
	for i, e := range experiments.Registry() {
		m.put("experiments."+e.Name+"_ms", rec.lat[i], "ms")
	}
	return nil
}

// layerDrives runs every drive; a traced run reports them all whatever
// its workload, so their numbers compare across workloads.
func layerDrives(seed uint64, payload codec.Bits, m metricSet) error {
	if err := simDrives(m); err != nil {
		return err
	}
	if err := osmodelDrives(seed, m); err != nil {
		return err
	}
	if err := codecDrive(seed, m); err != nil {
		return err
	}
	if err := familyDrive(seed, payload, m); err != nil {
		return err
	}
	return registryDrive(m)
}
