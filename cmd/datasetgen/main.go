// Command datasetgen renders the synthetic COREL-like datasets to disk as
// PPM images plus a manifest (image index, category index, category name,
// appearance variant). It substitutes the proprietary COREL Photo CDs used
// by the paper (see README "Layout") and exists mainly so the generated
// imagery can be inspected — the benchmarks render images in memory.
//
// Example:
//
//	datasetgen -categories 20 -per-category 10 -out ./corel20-preview
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lrfcsvm/internal/cmdline"
	"lrfcsvm/internal/dataset"
	"lrfcsvm/internal/imaging"
)

func main() {
	var (
		categories = flag.Int("categories", 20, "number of categories (max 50)")
		perCat     = flag.Int("per-category", 100, "images per category")
		size       = flag.Int("size", 64, "image width and height in pixels")
		seed       = flag.Uint64("seed", 42, "generation seed")
		noise      = flag.Float64("extra-noise", 15, "extra pixel noise (0..255 scale)")
		out        = flag.String("out", "dataset-out", "output directory")
	)
	cmdline.Parse("datasetgen")

	spec := dataset.Spec{
		Categories:        *categories,
		ImagesPerCategory: *perCat,
		Width:             *size,
		Height:            *size,
		Seed:              *seed,
		ExtraNoise:        *noise,
	}
	gen, err := dataset.NewGenerator(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datasetgen:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "datasetgen:", err)
		os.Exit(1)
	}
	manifest, err := os.Create(filepath.Join(*out, "manifest.csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "datasetgen:", err)
		os.Exit(1)
	}
	defer manifest.Close()
	fmt.Fprintln(manifest, "index,category,category_name,variant,file")

	for i := 0; i < gen.NumImages(); i++ {
		item := gen.Item(i)
		name := fmt.Sprintf("%s_%04d.ppm", item.CategoryName, i)
		if err := imaging.SavePPM(filepath.Join(*out, name), gen.Render(i)); err != nil {
			fmt.Fprintln(os.Stderr, "datasetgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(manifest, "%d,%d,%s,%d,%s\n", i, item.Category, item.CategoryName, gen.Variant(i), name)
	}
	if err := manifest.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "datasetgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d images across %d categories to %s\n", gen.NumImages(), gen.NumCategories(), *out)
}
