// Command featextract generates a synthetic dataset, extracts the paper's
// 36-dimensional visual descriptors (HSV color moments, Canny edge-direction
// histogram, Daubechies-4 wavelet entropies), standardizes them, and writes
// a binary feature store consumable by loggen and cbirserver.
//
// Example:
//
//	featextract -categories 20 -per-category 100 -out features20.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lrfcsvm/internal/cmdline"
	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/features"
	"lrfcsvm/internal/storage"
)

func main() {
	var (
		categories = flag.Int("categories", 20, "number of categories (max 50)")
		perCat     = flag.Int("per-category", 100, "images per category")
		size       = flag.Int("size", 64, "image width and height in pixels")
		seed       = flag.Uint64("seed", 42, "generation seed")
		noise      = flag.Float64("extra-noise", 15, "extra pixel noise")
		workers    = flag.Int("workers", 0, "extraction workers (0 = GOMAXPROCS)")
		out        = flag.String("out", "features.bin", "output feature store")
	)
	cmdline.Parse("featextract")

	gen, err := dataset.NewGenerator(dataset.Spec{
		Categories:        *categories,
		ImagesPerCategory: *perCat,
		Width:             *size,
		Height:            *size,
		Seed:              *seed,
		ExtraNoise:        *noise,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "featextract:", err)
		os.Exit(2)
	}
	start := time.Now()
	var extractor features.Extractor
	raw := extractor.ExtractAll(gen, *workers)
	norm, err := features.FitNormalizer(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "featextract:", err)
		os.Exit(1)
	}
	descriptors := norm.ApplyAll(raw)
	if err := storage.SaveFeatures(*out, descriptors, gen.Labels()); err != nil {
		fmt.Fprintln(os.Stderr, "featextract:", err)
		os.Exit(1)
	}
	fmt.Printf("extracted %d descriptors (%d-dimensional) in %v -> %s\n",
		len(descriptors), features.Dim, time.Since(start).Round(time.Millisecond), *out)
}
