package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"time"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/detect"
	"mes/internal/experiments"
	"mes/internal/runner"
	"mes/internal/sim"
	"mes/internal/timing"
)

const (
	// passOps are the ops in one pass of the two trial workloads: enough
	// that ten samples lie beyond each pass's p99.
	passOps = 1000
	// traceCap bounds each family-detect trace. A 1,000-bit run records
	// at most ~5,600 entries, so nothing should drop; an op whose trace
	// dropped entries fails rather than feeding the detector a truncated
	// run.
	traceCap = 1 << 14
)

// passRec collects one pass: per-op host latency, op accounting and a
// digest of each op's outputs, all indexed by op.
type passRec struct {
	start     int                 // op the pass begins with; see nth
	lat       []float64           // ms
	outs      [][sha256.Size]byte // digest of each op's outputs
	h         hash.Hash           // scratch for outs
	attempted int
	failed    int
	firstErr  error
	trials    int // decoded trials
	syncMiss  int // decoded trials whose preamble check failed
}

func newPassRec(ops, start int) *passRec {
	return &passRec{start: start % ops, lat: make([]float64, ops), outs: make([][sha256.Size]byte, ops), h: sha256.New()}
}

// nth is the op a trial pass runs j-th. Passes begin at different ops, so
// no op always runs first after the forced collection or always meets a
// collection that the pass's allocations trigger at the same point: the
// fastest repetition of each op then excludes both.
func (p *passRec) nth(j int) int { return (p.start + j) % len(p.lat) }

// op accounts op i: its latency and whether it failed.
func (p *passRec) op(i int, el time.Duration, err error) {
	p.lat[i] = ms(el)
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

// out resets and returns the hash an op's outputs are written to; seal
// stores its digest as op i's.
func (p *passRec) out() hash.Hash {
	p.h.Reset()
	return p.h
}

func (p *passRec) seal(i int) { p.h.Sum(p.outs[i][:0]) }

// trial records a decoded trial's preamble check (SyncOK).
func (p *passRec) trial(res *core.Result) {
	p.trials++
	if !res.SyncOK {
		p.syncMiss++
	}
}

// maxSyncMissShare is the share of a pass's trials whose preamble check
// may fail before every such trial counts as a failed op. At 1,000 bits
// the channel noise makes one of the eight preamble symbols decode wrong
// in 4–7% of trials on every substrate while the payload still decodes
// within its usual error rate, so a single miss is noise; a share well
// above that is a broken preamble.
const maxSyncMissShare = 0.15

// checkSync applies the preamble rule at the end of a pass.
func (p *passRec) checkSync() {
	if p.trials == 0 || float64(p.syncMiss) <= maxSyncMissShare*float64(p.trials) {
		return
	}
	p.failed += p.syncMiss
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("%d of %d trials failed the preamble check, above %.0f%%",
			p.syncMiss, p.trials, maxSyncMissShare*100)
	}
}

// sum is the pass's digest: its ops' digests in op order, so that it does
// not depend on the op the pass began with.
func (p *passRec) sum() string {
	h := sha256.New()
	for _, o := range p.outs {
		h.Write(o[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// simStats are the simulated outcomes of the work one pass repeats. They
// are exact for a seed: a change that only makes the simulator faster
// must leave them identical.
type simStats struct {
	trKbps      float64 // mean simulated payload rate
	berPct      float64 // mean simulated bit error rate
	paperErrPct float64 // max |sim − paper| / paper over the headline channels run
}

// driver runs one workload. Every pass repeats the same fixed work with
// the same inputs, so every pass must produce the same digest.
type driver interface {
	ops() int
	pass(p *passRec)
	sim() (simStats, error)
	close()
}

// workload names a driver; README.md says why each exists.
type workload struct {
	name string
	open func(seed uint64, payload codec.Bits) (driver, error)
}

var workloads = []workload{
	{"steady-event", openSteadyEvent},
	{"family-detect", openFamilyDetect},
	{"registry-full", openRegistryFull},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// headline is one of the paper's headline channels and its reported rate.
type headline struct {
	pair
	paperKbps float64
}

// headlines are the channels behind the paper's headline rates: Event
// local, Event cross-sandbox and FileLockEX cross-VM.
func headlines() ([]headline, error) {
	var out []headline
	for _, p := range []pair{{core.Event, core.Local()}, {core.Event, core.CrossSandbox()}, {core.FileLockEX, core.CrossVM()}} {
		_, tr, ok := experiments.PaperValues(p.scn.Isolation, p.mech)
		if !ok {
			return nil, fmt.Errorf("no paper value for %v", p)
		}
		out = append(out, headline{p, tr})
	}
	return out, nil
}

func relErrPct(sim, paper float64) float64 { return math.Abs(sim-paper) / paper * 100 }

// hashResult folds a trial's decoded outputs into a digest.
func hashResult(h hash.Hash, res *core.Result) {
	var b [8]byte
	sync := uint64(0)
	if res.SyncOK {
		sync = 1
	}
	for _, v := range []uint64{math.Float64bits(res.TRKbps), math.Float64bits(res.BER), uint64(res.BitErrors), sync} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write(res.ReceivedBits)
}

// --- steady-event ---

type steadyEvent struct {
	seed    uint64
	payload codec.Bits
	s       *core.Session
	tr, ber []float64 // each trial's simulated rate and bit error rate
}

func openSteadyEvent(seed uint64, payload codec.Bits) (driver, error) {
	s, err := core.NewSession(core.Config{Mechanism: core.Event, Scenario: core.Local(), Payload: payload, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &steadyEvent{seed: seed, payload: payload, s: s, tr: make([]float64, passOps), ber: make([]float64, passOps)}, nil
}

func (w *steadyEvent) ops() int { return passOps }

func (w *steadyEvent) pass(p *passRec) {
	for j := 0; j < passOps; j++ {
		i := p.nth(j)
		t0 := time.Now()
		res, err := w.s.Run(runner.TrialSeed(w.seed, i))
		el := time.Since(t0)
		err = checkTrial(res, err, w.payload)
		p.op(i, el, err)
		if err != nil {
			continue
		}
		p.trial(res)
		hashResult(p.out(), res)
		p.seal(i)
		w.tr[i], w.ber[i] = res.TRKbps, res.BER
	}
}

func (w *steadyEvent) sim() (simStats, error) {
	_, paper, ok := experiments.PaperValues(timing.Local, core.Event)
	if !ok {
		return simStats{}, fmt.Errorf("no paper value for Event/local")
	}
	tr := mean(w.tr)
	return simStats{trKbps: tr, berPct: mean(w.ber) * 100, paperErrPct: relErrPct(tr, paper)}, nil
}

func (w *steadyEvent) close() { w.s.Close() }

// --- family-detect ---

type familyDetect struct {
	seed    uint64
	payload codec.Bits
	pairs   []pair
	tr, ber []float64 // each op's simulated rate and bit error rate
}

func openFamilyDetect(seed uint64, payload codec.Bits) (driver, error) {
	pairs := feasiblePairs()
	if passOps%len(pairs) != 0 {
		return nil, fmt.Errorf("%d ops do not interleave %d substrates in equal shares", passOps, len(pairs))
	}
	return &familyDetect{seed: seed, payload: payload, pairs: pairs, tr: make([]float64, passOps), ber: make([]float64, passOps)}, nil
}

func (w *familyDetect) ops() int { return passOps }

// familyOut is one family-detect op: a traced one-shot transmission and
// the detector's scan of its trace, with the time each took.
type familyOut struct {
	res          *core.Result
	scores       []detect.Score
	entries      int
	run, analyze time.Duration
}

// familyOp runs one traced one-shot transmission and scans its trace.
// The scores are empty for the mechanisms whose objects record no event
// the detector watches (Mutex, Semaphore, Timer and FileLockEX); that is
// the detector's answer, not a failure.
func familyOp(p pair, payload codec.Bits, seed uint64) (familyOut, error) {
	tr := sim.NewTrace(traceCap)
	t0 := time.Now()
	res, err := core.Run(core.Config{Mechanism: p.mech, Scenario: p.scn, Payload: payload, Seed: seed, Trace: tr})
	t1 := time.Now()
	if err := checkTrial(res, err, payload); err != nil {
		return familyOut{}, err
	}
	if n := tr.Dropped(); n > 0 {
		return familyOut{}, fmt.Errorf("trace dropped %d entries past its capacity %d", n, traceCap)
	}
	t2 := time.Now()
	scores := detect.Analyze(tr.Entries())
	return familyOut{res, scores, tr.Len(), t1.Sub(t0), time.Since(t2)}, nil
}

func (w *familyDetect) pass(p *passRec) {
	for j := 0; j < passOps; j++ {
		i := p.nth(j)
		t0 := time.Now()
		out, err := familyOp(w.pairs[i%len(w.pairs)], w.payload, runner.TrialSeed(w.seed, i))
		p.op(i, time.Since(t0), err)
		if err != nil {
			continue
		}
		p.trial(out.res)
		h := p.out()
		hashResult(h, out.res)
		for _, s := range out.scores {
			fmt.Fprintf(h, "%s %d %x\n", s.Resource, s.Events, math.Float64bits(s.Suspicion))
		}
		p.seal(i)
		w.tr[i], w.ber[i] = out.res.TRKbps, out.res.BER
	}
}

// sim sums the ops in op order, so that the figures are exact for a
// seed whatever op the last pass began with.
func (w *familyDetect) sim() (simStats, error) {
	hs, err := headlines()
	if err != nil {
		return simStats{}, err
	}
	trSum := make([]float64, len(w.pairs))
	for i, v := range w.tr {
		trSum[i%len(w.pairs)] += v
	}
	per := float64(passOps / len(w.pairs))
	st := simStats{trKbps: mean(w.tr), berPct: mean(w.ber) * 100}
	for k, p := range w.pairs {
		for _, h := range hs {
			if h.pair == p {
				st.paperErrPct = max(st.paperErrPct, relErrPct(trSum[k]/per, h.paperKbps))
			}
		}
	}
	return st, nil
}

func (w *familyDetect) close() {}

// --- registry-full ---

// registryOptions are the options registry-full renders the registry
// with: full fidelity at mesbench's default seed, one worker. The
// registry's artifacts are defined at that seed, and its memo retention
// differs by seed (live heap 16–22 MiB across seeds 11–15), so the run's
// seed does not reach the registry: every run repeats the same work.
var registryOptions = experiments.Options{Seed: 1, Workers: 1}

type registryFull struct {
	opt experiments.Options
}

func openRegistryFull(uint64, codec.Bits) (driver, error) {
	return &registryFull{opt: registryOptions}, nil
}

func (w *registryFull) ops() int { return len(experiments.Registry()) }

// pass renders every registry experiment from cold sweep and trial
// memos, in registry order whatever op p begins with: later experiments
// read the memos earlier ones fill. Each pass starts where a fresh
// `mesbench -all` process would.
func (w *registryFull) pass(p *passRec) {
	experiments.ResetCaches()
	for i, e := range experiments.Registry() {
		t0 := time.Now()
		out, err := e.Run(w.opt)
		el := time.Since(t0)
		if err == nil && out == "" {
			err = fmt.Errorf("rendered nothing")
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", e.Name, err)
		}
		p.op(i, el, err)
		fmt.Fprintf(p.out(), "== %s\n%s", e.Name, out)
		p.seal(i)
	}
}

// sim reads the simulated rates off Tables IV–VI, the registry's
// per-channel performance tables. Called after a pass, the tables replay
// from the trial memo.
func (w *registryFull) sim() (simStats, error) {
	hs, err := headlines()
	if err != nil {
		return simStats{}, err
	}
	var st simStats
	n := 0
	for _, tab := range []struct {
		iso timing.Isolation
		gen func(experiments.Options) ([]experiments.TableRow, error)
	}{{timing.Local, experiments.Table4}, {timing.Sandbox, experiments.Table5}, {timing.VM, experiments.Table6}} {
		rows, err := tab.gen(w.opt)
		if err != nil {
			return simStats{}, err
		}
		for _, r := range rows {
			st.trKbps += r.TRKbps
			st.berPct += r.BERPct
			n++
			for _, h := range hs {
				if h.mech == r.Mechanism && h.scn.Isolation == tab.iso {
					st.paperErrPct = max(st.paperErrPct, relErrPct(r.TRKbps, h.paperKbps))
				}
			}
		}
	}
	if n == 0 {
		return simStats{}, fmt.Errorf("tables IV–VI have no rows")
	}
	st.trKbps /= float64(n)
	st.berPct /= float64(n)
	return st, nil
}

func (w *registryFull) close() {}
