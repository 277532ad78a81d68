package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/interp"
)

// defaultSeed is the seed whose reference digests are pinned in
// pinned.json.
const defaultSeed = 1

// poolSize is the number of distinct generated programs an rvm workload
// cycles through.
const poolSize = 12

var workloadNames = []string{"paper-cells", "rvm-sync", "rvm-compute", "rvm-sync-fr"}

// workload is a fixed set of inputs derived from the seed, the function
// that runs one of them as a request, and the reference digests the
// results must match.
type workload struct {
	name   string
	inputs int
	label  func(in int) string
	exec   func(in int, sp *spanRec, root int) (outcome, error)
	// warm lists the inputs run once, untimed, during set-up.
	warm []int
	// ref holds each input's expected digest. rvm workloads fill it from
	// the exec tier during set-up; paper-cells fills it on an input's
	// first run, so later repetitions must reproduce it.
	ref    []uint64
	refErr []error
	// pinned holds the digests recorded for defaultSeed, nil for other
	// seeds.
	pinned []uint64
}

//go:embed pinned.json
var pinnedJSON []byte

// pinnedDigests returns the pinned digests of a workload for defaultSeed.
// rvm-sync-fr runs rvm-sync's programs, and the recorder must not perturb
// them, so it shares rvm-sync's references.
func pinnedDigests(name string) ([]uint64, error) {
	if name == "rvm-sync-fr" {
		name = "rvm-sync"
	}
	var all map[string][]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("pinned.json: %w", err)
	}
	hexes, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("pinned.json: no references for %s", name)
	}
	out := make([]uint64, len(hexes))
	for i, h := range hexes {
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("pinned.json: %s[%d]: %w", name, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// inputSeed derives the seed of input in from the run seed.
func inputSeed(seed int64, in int) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(in))).Int63()
}

// newWorkload generates the workload's inputs from seed and computes the
// references that do not need the timed path.
func newWorkload(name string, seed int64) (*workload, error) {
	var w *workload
	switch name {
	case "paper-cells":
		grid := cellGrid()
		w = &workload{
			name:   name,
			inputs: len(grid),
			label:  func(in int) string { return grid[in].String() },
			exec: func(in int, sp *spanRec, root int) (outcome, error) {
				return runCell(grid[in], inputSeed(seed, in), sp, root)
			},
		}
		// Warm up on the two cheapest cells (8+2, short high loop, 0%
		// writes), whatever the seed.
		for in, c := range grid {
			if c.High == 8 && c.ShortHigh && c.WritePct == 0 {
				w.warm = append(w.warm, in)
			}
		}
	case "rvm-sync", "rvm-sync-fr", "rvm-compute":
		gen, kind := genSync, "sync"
		if name == "rvm-compute" {
			gen, kind = genCompute, "compute"
		}
		pool := make([]program, poolSize)
		for i := range pool {
			pool[i] = gen(rand.New(rand.NewSource(inputSeed(seed, i))), fmt.Sprintf("%s-%d-%d", kind, seed, i))
		}
		opts := pipelineOpts{tier: interp.TierOpt, recorder: name == "rvm-sync-fr"}
		w = &workload{
			name:   name,
			inputs: len(pool),
			label:  func(in int) string { return pool[in].Name },
			exec: func(in int, sp *spanRec, root int) (outcome, error) {
				return runProgram(&pool[in], opts, sp, root)
			},
			warm:   []int{0, 1},
			refErr: make([]error, len(pool)),
		}
		// The exec tier is the reference interpreter: every request's
		// digest must equal the one it produces for the same program.
		w.ref = make([]uint64, len(pool))
		for i := range pool {
			o, err := runProgram(&pool[i], pipelineOpts{tier: interp.TierExec}, nil, -1)
			if err != nil {
				w.refErr[i] = fmt.Errorf("exec-tier reference: %w", err)
				continue
			}
			w.ref[i] = o.digest()
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if w.ref == nil {
		w.ref = make([]uint64, w.inputs)
		w.refErr = make([]error, w.inputs)
	}
	return w, nil
}

// pin makes every request also match the digests pinned for defaultSeed.
func (w *workload) pin() error {
	p, err := pinnedDigests(w.name)
	if err != nil {
		return err
	}
	if len(p) != w.inputs {
		return fmt.Errorf("pinned.json: %d references for %s, want %d", len(p), w.name, w.inputs)
	}
	w.pinned = p
	return nil
}

// verify compares an outcome's digest with the input's references.
func (w *workload) verify(in int, o outcome) error {
	if err := w.refErr[in]; err != nil {
		return err
	}
	d := o.digest()
	if w.ref[in] == 0 {
		w.ref[in] = d
	} else if d != w.ref[in] {
		return fmt.Errorf("%s: digest %016x, reference %016x", w.label(in), d, w.ref[in])
	}
	if w.pinned != nil && d != w.pinned[in] {
		return fmt.Errorf("%s: digest %016x, pinned %016x", w.label(in), d, w.pinned[in])
	}
	return nil
}

// sequence yields the request order: back-to-back seeded permutations of
// the inputs, so every input recurs at the same rate.
type sequence struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newSequence(seed int64, n int) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (s *sequence) next() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(s.n)
	}
	v := s.perm[0]
	s.perm = s.perm[1:]
	return v
}

// loopResult is what the closed loop measured.
type loopResult struct {
	lat       []float64 // untraced request latencies, ms
	at        []float64 // start of each untraced request, seconds into the window (untraced runs only)
	cal       []float64 // calibration run after each untraced request, ms (untraced runs only)
	tracedLat []float64 // traced request latencies, ms (traced runs only)
	attempted int
	failed    int
	failures  []string // the first few failure messages
	elapsed   time.Duration
	sum       outcome // counts summed over the traced requests
	traced    int
}

// request runs input in once, checks it, and returns its host latency.
func (w *workload) request(in int, sp *spanRec, res *loopResult) float64 {
	if sp != nil {
		sp.input = in
	}
	root := sp.begin("request", -1)
	t0 := time.Now()
	o, err := w.exec(in, sp, root)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil {
		err = w.verify(in, o)
	}
	if sp != nil {
		sp.end(root)
		sp.req++
		res.traced++
		res.sum.add(o)
	}
	res.attempted++
	if err != nil {
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, err.Error())
		}
	}
	return ms
}

// run drives one closed-loop client: the next request starts when the
// previous one has completed, until the window has elapsed. Without sp,
// the calibration loop runs after every request, so each latency can be
// normalized by the host's speed at that moment. With sp set, every input
// runs twice in a row, untraced and traced in alternating order, so the
// two latency samples see the same inputs.
func (w *workload) run(seq *sequence, window time.Duration, sp *spanRec) loopResult {
	var res loopResult
	t0 := time.Now()
	for i := 0; time.Since(t0) < window; i++ {
		in := seq.next()
		if sp == nil {
			res.at = append(res.at, time.Since(t0).Seconds())
			res.lat = append(res.lat, w.request(in, nil, &res))
			res.cal = append(res.cal, calibrationMs())
			continue
		}
		if i%2 == 0 {
			res.lat = append(res.lat, w.request(in, nil, &res))
			res.tracedLat = append(res.tracedLat, w.request(in, sp, &res))
		} else {
			res.tracedLat = append(res.tracedLat, w.request(in, sp, &res))
			res.lat = append(res.lat, w.request(in, nil, &res))
		}
	}
	res.elapsed = time.Since(t0)
	return res
}

// add accumulates the counts of o.
func (s *outcome) add(o outcome) {
	s.Clock += o.Clock
	st, x := &s.Stats, o.Stats
	st.ContextSwitches += x.ContextSwitches
	st.ThinAcquisitions += x.ThinAcquisitions
	st.Inflations += x.Inflations
	st.Inversions += x.Inversions
	st.RevocationRequests += x.RevocationRequests
	st.Rollbacks += x.Rollbacks
	st.EntriesLogged += x.EntriesLogged
	st.EntriesUndone += x.EntriesUndone
	st.StoresDeduped += x.StoresDeduped
	st.BarrierFastPaths += x.BarrierFastPaths
	st.RawStores += x.RawStores
	st.WastedTicks += x.WastedTicks
	s.Acquisitions += o.Acquisitions
	s.Reads += o.Reads
	s.OptMethods += o.OptMethods
	s.FREvents += o.FREvents
	s.FRLost += o.FRLost
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
