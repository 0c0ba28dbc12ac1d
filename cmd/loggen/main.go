// Command loggen simulates the collection of user-feedback log sessions
// over a feature store written by featextract, following the collection
// protocol of the paper (Section 6.3): per session a random query, a result
// list of 20 images, per-image relevance ticks, plus judgment noise. The log
// is written as a binary log store consumable by cbirserver.
//
// Example:
//
//	loggen -features features20.bin -sessions 150 -out log20.bin
package main

import (
	"flag"
	"fmt"
	"os"

	"lrfcsvm/internal/cmdline"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/storage"
)

func main() {
	var (
		featuresPath = flag.String("features", "features.bin", "feature store written by featextract")
		sessions     = flag.Int("sessions", 150, "number of log sessions to simulate")
		returned     = flag.Int("returned", 20, "images judged per session")
		noise        = flag.Float64("noise", 0.05, "probability of flipping a judgment")
		exploration  = flag.Float64("exploration", 0.35, "fraction of each session drawn from the target category")
		seed         = flag.Uint64("seed", 43, "simulation seed")
		out          = flag.String("out", "log.bin", "output log store")
	)
	cmdline.Parse("loggen")

	visual, labels, err := storage.LoadFeatures(*featuresPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
	log, err := feedbacklog.Simulate(visual, labels, feedbacklog.SimulatorConfig{
		Sessions:            *sessions,
		ReturnedPerSession:  *returned,
		NoiseRate:           *noise,
		ExplorationFraction: *exploration,
		Seed:                *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
	if err := storage.SaveLog(*out, log); err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
	st := log.Stats()
	fmt.Printf("simulated %d sessions (%d judgments, %.0f%% of images covered) -> %s\n",
		st.Sessions, st.TotalJudgments, 100*st.CoverageFraction, *out)
}
