package main

import (
	"fmt"
	"math"
)

// workload is one traffic mix against one generated collection. The four
// below sweep collection size by decades, because size — not any flag — is
// what moves a refine's cost between the coupled trainer, the two
// full-collection scoring scans and the HTTP/JSON shell. README.md records
// the sizing numbers behind each choice.
type workload struct {
	Name string
	Why  string
	// Shape is the generated collection and initial log.
	Shape shape
	// Fsync is the journal policy; a non-empty SnapshotInterval adds
	// -snapshot with that -snapshot-interval. Everything else is the
	// shipping default.
	Fsync            string
	SnapshotInterval string
	// Scheme and Rounds describe the refinement part of a feedback loop;
	// a loop commits when its number is a multiple of CommitEvery.
	Scheme      string
	Rounds      int
	CommitEvery int
	// Mixed puts writes before every read: each loop is an ingest burst,
	// commitsPerBurst session→judge→commit without refining, and then one
	// feedback loop that never commits.
	Mixed bool
	// LoopsPerSecond is the operation budget: a run of S seconds executes
	// ceil(S × LoopsPerSecond) loops, however long that takes. Counts, not durations, keep runs comparable:
	// committed sessions lengthen every log vector, so a faster build given
	// a fixed time would commit more and be measured on a harder problem.
	// The rates were set once so that a run measures for about S seconds on
	// the 2-core reference sandbox (REPEATABILITY.md) and are frozen.
	LoopsPerSecond float64
	// SpinWeight is the part of a spin's slowdown (calib.go) this workload's
	// requests show. Dense arithmetic suffers most from a busy neighbour on
	// the shared host; solver steps, JSON and system calls suffer less, so the
	// weight grows with the share of a loop spent in the parallel scoring
	// scans. Fitted once over forty runs (REPEATABILITY.md, section 3) and
	// frozen; a wrong weight widens the run-to-run spread, it does not bias a
	// comparison of two builds.
	SpinWeight float64
	// TraceLoopsPerSecond is the same budget for the serial traced run,
	// whose every request is replayed at four or five depths.
	TraceLoopsPerSecond float64
}

const (
	ingestBurst     = 16 // descriptors per POST /api/images
	commitsPerBurst = 6  // sessions committed after each burst
	// recoveryTail is the fixed number of acknowledged commits the mixed
	// workload writes between the last snapshot pass and kill -9, so every
	// recovery replays a journal tail of the same length.
	recoveryTail = 200
	// setupSamples is how many times a run starts a fresh server from the
	// generated files to take setup_s (median); recoverySamples likewise for
	// recover_s.
	setupSamples    = 11
	recoverySamples = 5
)

var workloads = []workload{
	{
		Name:        "feedback-small",
		Why:         "500 images: coupled trainer + SMO carry their largest share of a refine and a query is almost pure server + socket cost",
		Shape:       shape{Categories: 10, PerCategory: 50, Sessions: 1500},
		Fsync:       "interval",
		Scheme:      "lrf-csvm",
		Rounds:      2,
		CommitEvery: 10,

		LoopsPerSecond:      105,
		SpinWeight:          0.4,
		TraceLoopsPerSecond: 10,
	},
	{
		Name:        "feedback-paper",
		Why:         "5,000 images, the paper's 50-Category scale: two SVM scoring scans own a refine, the trainer a few percent; the control for trainer-only gains",
		Shape:       shape{Categories: 50, PerCategory: 100, Sessions: 1000},
		Fsync:       "interval",
		Scheme:      "lrf-csvm",
		Rounds:      2,
		CommitEvery: 10,

		LoopsPerSecond:      60,
		SpinWeight:          0.5,
		TraceLoopsPerSecond: 4,
	},
	{
		Name:        "feedback-large",
		Why:         "50,000 images: scan-bound, where sharding, backends and approximate lanes earn their code or not; a trainer gain must read no change",
		Shape:       shape{Categories: 100, PerCategory: 500, Sessions: 2000},
		Fsync:       "interval",
		Scheme:      "lrf-csvm",
		Rounds:      2,
		CommitEvery: 10,

		LoopsPerSecond:      9.5,
		SpinWeight:          0.7,
		TraceLoopsPerSecond: 0.6,
	},
	{
		Name:             "ingest-commit",
		Why:              "20,000 images, fsync always + snapshots: ingestion and commits before every lrf-2svms read, then kill -9 and recovery; what read-side caching costs writes shows only here",
		Shape:            shape{Categories: 100, PerCategory: 200, Sessions: 2000},
		Fsync:            "always",
		SnapshotInterval: "5s",
		Scheme:           "lrf-2svms",
		Rounds:           1,
		Mixed:            true,

		LoopsPerSecond:      50,
		SpinWeight:          0.6,
		TraceLoopsPerSecond: 2,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// loopsFor is the loop count of a run of the given length.
func loopsFor(rate float64, seconds int) int {
	n := int(math.Ceil(rate * float64(seconds)))
	if n < 2 {
		n = 2
	}
	return n
}

// serverFlags are the flags one server life runs with. Only the file paths,
// the durability policy the workload names and a session cap high enough
// that no live session is evicted differ from the shipping defaults.
func (w workload) serverFlags(featuresPath, logPath, journalPath, snapshotPath string) []string {
	flags := []string{
		"-features", featuresPath,
		"-log", logPath,
		"-journal", journalPath,
		"-fsync", w.Fsync,
		"-max-sessions", "1000000",
	}
	if w.SnapshotInterval != "" {
		flags = append(flags, "-snapshot", snapshotPath, "-snapshot-interval", w.SnapshotInterval)
	}
	return flags
}
