package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"mes/internal/codec"
	"mes/internal/core"
	"mes/internal/runner"
	"mes/internal/sim"
)

// payloadBits is the payload of every trial the trial workloads run: the
// size of one protocol run in the paper's steady-state measurements.
const payloadBits = 1000

// setupSamples is how many cold set-ups one untraced run times: the
// run's own plus setupSamples-1 child processes, each a fresh process
// with empty machine pools, started between passes at even intervals
// over the run. setupGroups is how many groups setupTime deals them into.
const (
	setupSamples = 41
	setupGroups  = 8
)

// setupTime is the median over setupGroups groups of each group's
// fastest set-up. Set-up j goes to group j mod setupGroups, so every
// group spans the whole run. The machine's other load only adds time,
// in phases of seconds to minutes that a plain median follows from run
// to run; a group's fastest set-up is its least disturbed one.
func setupTime(setups []float64) float64 {
	fastest := make([]float64, min(setupGroups, len(setups)))
	for i := range fastest {
		fastest[i] = math.Inf(1)
	}
	for j, v := range setups {
		g := j % setupGroups
		fastest[g] = min(fastest[g], v)
	}
	return median(fastest)
}

// pair is one feasible channel substrate: a mechanism in a scenario.
type pair struct {
	mech core.Mechanism
	scn  core.Scenario
}

func (p pair) String() string { return fmt.Sprintf("%v/%v", p.mech, p.scn) }

// feasiblePairs enumerates every mechanism × scenario the channel layer
// accepts, in Mechanisms() order within Local, CrossSandbox, CrossVM.
func feasiblePairs() []pair {
	var out []pair
	for _, scn := range []core.Scenario{core.Local(), core.CrossSandbox(), core.CrossVM()} {
		for _, m := range core.Mechanisms() {
			if core.Feasible(m, scn) == nil {
				out = append(out, pair{m, scn})
			}
		}
	}
	return out
}

// payloadFor derives the run's payload from its seed: half ones, half
// zeros, in an order the seed shuffles. A cooperation channel's symbol
// time grows with the symbol's value, so a payload with a seed-dependent
// share of ones would move the simulated rate from seed to seed.
func payloadFor(seed uint64) codec.Bits {
	b := make(codec.Bits, payloadBits)
	for i := 0; i < payloadBits/2; i++ {
		b[i] = 1
	}
	rng := sim.NewRNG(seed ^ 0x5eed)
	for i := len(b) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		b[i], b[j] = b[j], b[i]
	}
	return b
}

// warmStats holds the spans recorded around the warm-up's calls into
// core: one NewSession and one first trial per substrate.
type warmStats struct {
	sessionNew []float64 // µs
	firstTrial []float64 // ms
}

// warmUp is the benchmark's fixed, untimed set-up: it opens a session on
// every feasible substrate and runs its first trial, which builds the
// pooled machines, the timing profiles and the sessions' buffers. Closing
// the sessions hands the machines back to the shared pool that one-shot
// runs draw from.
func warmUp(seed uint64, payload codec.Bits) (*warmStats, error) {
	ws := &warmStats{}
	for _, p := range feasiblePairs() {
		if err := warmPair(ws, p, seed, payload); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", p, err)
		}
	}
	return ws, nil
}

func warmPair(ws *warmStats, p pair, seed uint64, payload codec.Bits) error {
	t0 := time.Now()
	s, err := core.NewSession(core.Config{Mechanism: p.mech, Scenario: p.scn, Payload: payload, Seed: seed})
	t1 := time.Now()
	if err != nil {
		return err
	}
	defer s.Close()
	res, err := s.Run(runner.TrialSeed(seed, 0))
	t2 := time.Now()
	if err := checkTrial(res, err, payload); err != nil {
		return err
	}
	ws.sessionNew = append(ws.sessionNew, us(t1.Sub(t0)))
	ws.firstTrial = append(ws.firstTrial, ms(t2.Sub(t1)))
	return nil
}

// maxTrialBERPct is the bit error rate above which a decoded trial
// counts as failed. Healthy trials of every substrate stay under 2%.
const maxTrialBERPct = 5

// checkTrial reports why a trial failed: an error, a payload of the wrong
// length, a bit-error count that disagrees with a recount against the
// payload, or a decode too wrong to be the channel's noise. A failed
// preamble check (SyncOK false) is counted per pass instead; see
// maxSyncMissShare.
func checkTrial(res *core.Result, err error, payload codec.Bits) error {
	if err != nil {
		return err
	}
	if len(res.ReceivedBits) != len(payload) {
		return fmt.Errorf("received %d bits, sent %d", len(res.ReceivedBits), len(payload))
	}
	if n := codec.Hamming(res.ReceivedBits, payload); n != res.BitErrors {
		return fmt.Errorf("result reports %d bit errors, recount finds %d", res.BitErrors, n)
	}
	if res.BER*100 > maxTrialBERPct {
		return fmt.Errorf("bit error rate %.2f%% above %d%%", res.BER*100, maxTrialBERPct)
	}
	return nil
}

// childSetup times one cold set-up in a fresh process of this binary,
// which starts with empty pools and caches.
func childSetup(ctx context.Context, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	raw, err := exec.CommandContext(ctx, self, "--setup-child", "--seed", strconv.FormatUint(seed, 10)).Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child output %q: %w", raw, err)
	}
	return v, nil
}
