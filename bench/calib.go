package main

import (
	"math"
	"runtime"
	"time"
)

// The sandbox is a few cores of a shared host. When a neighbour is busy its
// speed drops by tens of percent for minutes at a time — longer than a run,
// so no statistic over one run's samples takes it out. A yardstick does:
// between loops, while the server is idle, the harness times a fixed
// computation of its own (a spin) and so knows how much slower than the
// reference the machine is running at that moment. Every listed time is the
// measured time divided by that slowdown, "at reference speed"; the raw times
// are printed beside them. The spin runs no code of the program, so a change
// to the program moves a listed time exactly as it moves the raw one.
// REPEATABILITY.md has the evidence: beside a busy neighbour ten seeds of raw
// throughput spread 13–25% between their quartiles, the listed one 2–6%.

const (
	// spinRows × descriptorDim multiply-adds and one exponential per row: the
	// arithmetic of an RBF scoring scan, over 1 MB that stays in L2.
	spinRows = 3584
	// spinReferenceMS is what one spin takes on the quiet reference sandbox.
	spinReferenceMS = 0.13
	// spinBudget is the share of the measured part's time that goes to spins.
	spinBudget = 0.04
	// spinWindow spins make one slowdown estimate (their median).
	spinWindow = 31
)

// speedometer times spins and keeps the current slowdown estimate.
type speedometer struct {
	// weight is the part of a spin's slowdown the workload's requests show
	// (workload.SpinWeight).
	weight float64
	procs  int
	rows   []float64
	query  []float64
	recent []float64 // ring of the last spinWindow spin times, ms
	next   int
	spent  time.Duration // total time spent spinning
}

func newSpeedometer(weight float64) *speedometer {
	s := &speedometer{
		weight: weight,
		procs:  runtime.GOMAXPROCS(0),
		rows:   make([]float64, spinRows*descriptorDim),
		query:  make([]float64, descriptorDim),
	}
	for i := range s.rows {
		s.rows[i] = float64(i%97) / 97
	}
	for i := range s.query {
		s.query[i] = float64(i%13) / 13
	}
	return s
}

// spinOnce runs the fixed computation and returns its duration in ms.
func (s *speedometer) spinOnce() float64 {
	start := time.Now()
	var acc float64
	for r := 0; r < spinRows; r++ {
		row := s.rows[r*descriptorDim : (r+1)*descriptorDim]
		var d float64
		for j, q := range s.query {
			diff := row[j] - q
			d += diff * diff
		}
		//cbirlint:ignore exppurity the yardstick must run no code of the program, the kernel's exponential included
		acc += math.Exp(-0.05 * d)
	}
	if acc < 0 {
		panic("bench: a sum of exponentials is negative") // keeps acc alive
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// spin runs the fixed computation on every processor at once — the server is
// idle between requests, so the threads spread over the processors — and
// records the mean of their durations: a neighbour slows the processors one
// by one, and the server's work lands on any of them.
func (s *speedometer) spin() {
	start := time.Now()
	others := make(chan float64, s.procs-1)
	for p := 1; p < s.procs; p++ {
		go func() { others <- s.spinOnce() }()
	}
	ms := s.spinOnce()
	for p := 1; p < s.procs; p++ {
		ms += <-others
	}
	ms /= float64(s.procs)
	s.spent += time.Since(start)
	if len(s.recent) < spinWindow {
		s.recent = append(s.recent, ms)
	} else {
		s.recent[s.next] = ms
		s.next = (s.next + 1) % spinWindow
	}
}

// prime replaces the window by fresh spins: an estimate of the speed now.
func (s *speedometer) prime() {
	s.recent, s.next = s.recent[:0], 0
	for i := 0; i < spinWindow; i++ {
		s.spin()
	}
}

// catchUp spins, at least once, until spinBudget of the given busy time has
// gone to spins.
func (s *speedometer) catchUp(busy time.Duration) {
	for {
		s.spin()
		if float64(s.spent) >= spinBudget*float64(busy) {
			return
		}
	}
}

// slowdown is how much slower than the reference the workload's requests run
// now: 1 on the quiet reference sandbox, 1.3 at weight 0.6 when the spins
// take 1.5 times their reference.
func (s *speedometer) slowdown() float64 {
	return slowdownOf(median(s.recent), s.weight)
}

func slowdownOf(spinMS, weight float64) float64 {
	return 1 + weight*(spinMS/spinReferenceMS-1)
}
