package main

import "time"

// On the shared host this benchmark was defined on, the same work runs
// about 1.5× slower in some seconds than in others, on either CPU, and a
// whole 20-second run can land mostly in one state or the other. Raw host
// times then spread by ±20 % between runs of identical code. The gated
// timings are therefore normalized: each one is scaled by the host's speed
// at that moment, measured with a fixed loop of the benchmark's own code
// that no change to the program can make faster or slower. Raw host times
// are printed next to them.

// refCalibrationMs is the calibration loop's duration that normalized
// times are scaled to: its median on the 2-core Xeon host the benchmark was
// defined on. It only sets the scale; changing it rescales every
// normalized figure.
const refCalibrationMs = 0.16

// calWindow is the time around a request whose calibrations describe the
// host speed the request ran at. It is shorter than the host's slow and
// fast spells (seconds) and long enough that a garbage-collection cycle
// overlapping a few calibrations cannot move their median.
const calWindow = 1.0 // seconds

// calState is the calibration loop's working set, allocated once so the
// loop itself never allocates.
var calState = func() (s struct {
	m    map[int]int
	buf  []int
	sink int
}) {
	s.m = make(map[int]int, 64)
	for i := 0; i < 64; i++ {
		s.m[i] = 0
	}
	s.buf = make([]int, 4096)
	return s
}()

// calibrationMs runs the calibration loop once and returns its duration in
// milliseconds: a small switch interpreter over a fixed instruction list
// with map and slice traffic, the same kinds of work the VM does.
func calibrationMs() float64 {
	type op struct{ code, arg int }
	prog := [...]op{{0, 3}, {1, 7}, {2, 1}, {3, 5}, {4, 0}, {1, 2}, {5, 9}, {2, 4}}
	m, buf := calState.m, calState.buf
	t0 := time.Now()
	acc := 1
	for i := 0; i < 20000; i++ {
		in := prog[i%len(prog)]
		switch in.code {
		case 0:
			acc += in.arg
		case 1:
			acc *= in.arg
		case 2:
			m[(acc+i)&63] += in.arg
		case 3:
			buf[(acc*31+i)&4095] = acc
		case 4:
			acc ^= buf[(i*17)&4095]
		case 5:
			acc -= m[i&63]
		}
	}
	calState.sink += acc
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// calibrationSample is the median of five calibration runs.
func calibrationSample() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = calibrationMs()
	}
	return quantile(xs, 0.5)
}

// speedFactors returns, for each request started at at[i] (seconds),
// refCalibrationMs divided by the median of the calibrations cal[j] taken
// by requests started within calWindow of it. at is ascending.
func speedFactors(at, cal []float64) []float64 {
	out := make([]float64, len(at))
	lo, hi := 0, 0
	for i, t := range at {
		for lo < len(at) && at[lo] < t-calWindow {
			lo++
		}
		for hi < len(at) && at[hi] <= t+calWindow {
			hi++
		}
		out[i] = refCalibrationMs / quantile(cal[lo:hi], 0.5)
	}
	return out
}
