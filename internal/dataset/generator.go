package dataset

import (
	"fmt"
	"math"

	"lrfcsvm/internal/imaging"
	"lrfcsvm/internal/linalg"
)

// Spec describes a synthetic dataset to generate.
type Spec struct {
	// Categories is the number of semantic categories (20 or 50 in the
	// paper). Must be between 1 and NumBuiltinArchetypes().
	Categories int
	// ImagesPerCategory is the number of images rendered per category
	// (100 in the paper).
	ImagesPerCategory int
	// Width and Height are the rendered image dimensions in pixels.
	Width, Height int
	// Seed makes generation deterministic. Two generators with the same
	// spec render identical images.
	Seed uint64
	// ExtraNoise is added on top of each archetype's own pixel noise; it is
	// the knob the ablation benchmarks use to widen or narrow the visual
	// semantic gap.
	ExtraNoise float64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	switch {
	case s.Categories <= 0 || s.Categories > NumBuiltinArchetypes():
		return fmt.Errorf("dataset: categories must be in [1,%d], got %d", NumBuiltinArchetypes(), s.Categories)
	case s.ImagesPerCategory <= 0:
		return fmt.Errorf("dataset: images per category must be positive, got %d", s.ImagesPerCategory)
	case s.Width < 8 || s.Height < 8:
		return fmt.Errorf("dataset: image size must be at least 8x8, got %dx%d", s.Width, s.Height)
	case s.ExtraNoise < 0:
		return fmt.Errorf("dataset: extra noise must be non-negative, got %v", s.ExtraNoise)
	}
	return nil
}

// Default20 returns the spec of the paper's 20-Category dataset at the
// default rendering resolution.
func Default20(seed uint64) Spec {
	return Spec{Categories: 20, ImagesPerCategory: 100, Width: 64, Height: 64, Seed: seed}
}

// Default50 returns the spec of the paper's 50-Category dataset.
func Default50(seed uint64) Spec {
	return Spec{Categories: 50, ImagesPerCategory: 100, Width: 64, Height: 64, Seed: seed}
}

// Item identifies one image of the dataset.
type Item struct {
	// Index is the global image index in [0, NumImages).
	Index int
	// Category is the category index in [0, Categories).
	Category int
	// CategoryName is the human-readable archetype name.
	CategoryName string
}

// Generator renders the images of a synthetic dataset deterministically:
// Render(i) always produces the same pixels for the same spec.
type Generator struct {
	spec       Spec
	archetypes []Archetype
}

// NewGenerator validates the spec and returns a generator for it.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Generator{spec: spec, archetypes: Archetypes(spec.Categories)}, nil
}

// NumImages returns the total number of images in the dataset.
func (g *Generator) NumImages() int { return g.spec.Categories * g.spec.ImagesPerCategory }

// NumCategories returns the number of categories.
func (g *Generator) NumCategories() int { return g.spec.Categories }

// Item returns the identity of image i.
func (g *Generator) Item(i int) Item {
	if i < 0 || i >= g.NumImages() {
		panic(fmt.Sprintf("dataset: image index %d out of range [0,%d)", i, g.NumImages()))
	}
	c := i / g.spec.ImagesPerCategory
	return Item{Index: i, Category: c, CategoryName: g.archetypes[c].Name}
}

// Labels returns the category label of every image, indexed by image index.
func (g *Generator) Labels() []int {
	out := make([]int, g.NumImages())
	for i := range out {
		out[i] = i / g.spec.ImagesPerCategory
	}
	return out
}

// NumVariants is the number of visual variants ("sub-looks") every category
// has. Real COREL categories are semantically coherent but visually
// multi-modal (the semantic gap): a "car" category contains red close-ups and
// distant street scenes. Each synthetic category therefore renders its images
// in one of NumVariants appearance modes that differ in texture orientation,
// scale and brightness while sharing the category's hue band and shape
// family. Queries retrieve their own variant easily by visual distance, and
// the feedback log is what links the variants — exactly the structure the
// paper's log-based relevance feedback exploits.
const NumVariants = 3

// Variant returns the appearance variant of image i, in [0,NumVariants).
func (g *Generator) Variant(i int) int {
	g.Item(i) // bounds check
	return i % NumVariants
}

// Render produces the pixels of image i. Rendering is deterministic in
// (spec, i) and is safe to call concurrently from multiple goroutines.
func (g *Generator) Render(i int) *imaging.Image {
	item := g.Item(i)
	a := g.archetypes[item.Category]
	variant := g.Variant(i)
	// Derive a per-image RNG stream from the dataset seed and the image
	// index so images are independent yet reproducible.
	rng := linalg.NewRNG(g.spec.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	im := imaging.New(g.spec.Width, g.spec.Height)

	// Variant-dependent appearance shifts: orientation, texture scale and
	// brightness move between variants; the hue band and shape family stay
	// with the category.
	angleShift := []float64{0, 0.9, 1.8}[variant]
	periodScale := []float64{1, 2.1, 0.55}[variant]
	valShift := []float64{0, 0.18, -0.14}[variant]

	// 1. Background: a gradient between two colors drawn from the
	// category's hue band, oriented along the category's edge bias.
	hue := a.Hue + rng.Range(-a.HueSpread, a.HueSpread)
	hue2 := hue + rng.Range(-a.HueSpread, a.HueSpread)*0.5
	sat := rng.Range(a.SatLo, a.SatHi)
	val := clamp01(rng.Range(a.ValLo, a.ValHi) + valShift)
	c1 := imaging.FromHSV(hue, sat, val)
	c2 := imaging.FromHSV(hue2, clamp01(sat*rng.Range(0.7, 1.1)), clamp01(val*rng.Range(0.7, 1.2)))
	angle := a.TextureAngle + angleShift + rng.Range(-0.25, 0.25)
	im.DrawGradient(c1, c2, angle)

	// 2. Category texture, at the variant's scale and orientation.
	va := a
	va.TexturePeriod = a.TexturePeriod * periodScale
	g.renderTexture(im, va, rng, hue, sat, val, angle)

	// 3. Foreground shapes in an offset hue.
	g.renderShapes(im, a, rng, hue)

	// 4. Pixel noise: archetype noise plus the dataset-level extra noise.
	im.AddNoise(rng, a.NoiseStd+g.spec.ExtraNoise)
	return im
}

func (g *Generator) renderTexture(im *imaging.Image, a Archetype, rng *linalg.RNG, hue, sat, val, angle float64) {
	period := a.TexturePeriod * rng.Range(0.8, 1.25)
	switch a.Texture {
	case TextureStripes:
		dark := imaging.FromHSV(hue, clamp01(sat*1.1), clamp01(val*0.55))
		light := imaging.FromHSV(hue, clamp01(sat*0.8), clamp01(val*1.2))
		im.DrawStripes(light, dark, math.Max(period, 2), angle)
	case TextureChecker:
		dark := imaging.FromHSV(hue, sat, clamp01(val*0.6))
		light := imaging.FromHSV(hue+10, clamp01(sat*0.7), clamp01(val*1.15))
		im.DrawChecker(light, dark, int(math.Max(period, 2)))
	case TextureSinusoid:
		im.DrawSinusoid(math.Max(period, 1), angle, rng.Range(0.3, 0.6))
	case TextureBlobs:
		im.DrawBlobs(rng, 6+rng.Intn(6), hue, a.HueSpread, 2, math.Max(period, 3))
	case TextureNone:
		// background only
	}
}

func (g *Generator) renderShapes(im *imaging.Image, a Archetype, rng *linalg.RNG, hue float64) {
	if a.Shape == ShapeNone || a.ShapeCount == 0 {
		return
	}
	n := a.ShapeCount
	if n > 1 {
		n += rng.Intn(3) - 1
	}
	w, h := float64(im.Width), float64(im.Height)
	for k := 0; k < n; k++ {
		c := imaging.FromHSV(hue+a.ShapeHue+rng.Range(-10, 10), rng.Range(0.5, 1), rng.Range(0.4, 1))
		switch a.Shape {
		case ShapeCircles:
			im.DrawCircle(rng.Range(0, w), rng.Range(0, h), rng.Range(w/16, w/5), c)
		case ShapeRects:
			x0 := rng.Intn(im.Width)
			y0 := rng.Intn(im.Height)
			im.DrawRect(x0, y0, x0+2+rng.Intn(im.Width/3), y0+2+rng.Intn(im.Height/3), c)
		case ShapeLines:
			im.DrawLine(rng.Intn(im.Width), rng.Intn(im.Height), rng.Intn(im.Width), rng.Intn(im.Height), c)
		case ShapeNone:
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
