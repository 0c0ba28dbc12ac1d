// Package dataset synthesizes the COREL-like image collections used by the
// paper's evaluation (a 20-Category and a 50-Category dataset with 100
// images per category).
//
// The COREL Photo CDs are proprietary, so this package substitutes a
// procedural generator: every category is an archetype — a dominant hue
// band, a texture family, a shape family and an edge-orientation bias — and
// every image is a randomized rendering of its category archetype plus pixel
// noise. The substitution preserves the property the paper's evaluation
// relies on: images of the same semantic category are *closer but not
// identical* in the low-level color/edge/texture feature space, leaving a
// semantic gap for relevance feedback to close. See README "Layout" and
// EXPERIMENTS.md "How to regenerate" for the collection sizes the experiments use.
package dataset

// TextureKind enumerates the procedural texture families used by the
// category archetypes.
type TextureKind int

// Texture families. Each produces a characteristic edge-direction histogram
// and wavelet-entropy signature.
const (
	TextureNone TextureKind = iota
	TextureStripes
	TextureChecker
	TextureSinusoid
	TextureBlobs
)

// ShapeKind enumerates the foreground object families.
type ShapeKind int

// Shape families overlaid on the background.
const (
	ShapeNone ShapeKind = iota
	ShapeCircles
	ShapeRects
	ShapeLines
)

// Archetype describes the parametric appearance of one image category.
type Archetype struct {
	Name string

	// Hue is the dominant hue of the category in degrees; HueSpread is the
	// per-image jitter applied to it.
	Hue       float64
	HueSpread float64

	// SatLo/SatHi and ValLo/ValHi bound the background saturation and value.
	SatLo, SatHi float64
	ValLo, ValHi float64

	// Texture controls the mid-frequency structure of the image.
	Texture       TextureKind
	TexturePeriod float64 // pixels (stripes/checker) or cycles (sinusoid)
	TextureAngle  float64 // radians; the category's edge-orientation bias

	// Shape controls the foreground objects.
	Shape      ShapeKind
	ShapeCount int
	ShapeHue   float64 // hue offset of the objects relative to Hue

	// NoiseStd is the per-category pixel noise level (0..255 scale).
	NoiseStd float64
}

// builtinArchetypes lists the 50 named category archetypes. The first 20
// form the 20-Category dataset; all 50 form the 50-Category dataset,
// mirroring the paper's two COREL subsets. Names follow the semantic
// categories the paper enumerates (antique, antelope, aviation, balloon,
// botany, butterfly, car, cat, dog, firework, horse, lizard, ...).
var builtinArchetypes = []Archetype{
	{Name: "antique", Hue: 35, HueSpread: 10, SatLo: 0.3, SatHi: 0.6, ValLo: 0.4, ValHi: 0.7, Texture: TextureChecker, TexturePeriod: 9, TextureAngle: 0, Shape: ShapeRects, ShapeCount: 3, ShapeHue: 20, NoiseStd: 8},
	{Name: "antelope", Hue: 30, HueSpread: 12, SatLo: 0.4, SatHi: 0.8, ValLo: 0.5, ValHi: 0.8, Texture: TextureBlobs, TexturePeriod: 6, TextureAngle: 0.4, Shape: ShapeCircles, ShapeCount: 4, ShapeHue: -15, NoiseStd: 10},
	{Name: "aviation", Hue: 210, HueSpread: 15, SatLo: 0.3, SatHi: 0.7, ValLo: 0.6, ValHi: 0.95, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0.1, Shape: ShapeLines, ShapeCount: 5, ShapeHue: 180, NoiseStd: 6},
	{Name: "balloon", Hue: 0, HueSpread: 25, SatLo: 0.6, SatHi: 1.0, ValLo: 0.6, ValHi: 1.0, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 6, ShapeHue: 60, NoiseStd: 7},
	{Name: "botany", Hue: 110, HueSpread: 18, SatLo: 0.5, SatHi: 0.9, ValLo: 0.3, ValHi: 0.7, Texture: TextureBlobs, TexturePeriod: 4, TextureAngle: 1.2, Shape: ShapeCircles, ShapeCount: 8, ShapeHue: 30, NoiseStd: 9},
	{Name: "butterfly", Hue: 280, HueSpread: 20, SatLo: 0.5, SatHi: 0.9, ValLo: 0.5, ValHi: 0.9, Texture: TextureSinusoid, TexturePeriod: 6, TextureAngle: 0.8, Shape: ShapeCircles, ShapeCount: 5, ShapeHue: -60, NoiseStd: 8},
	{Name: "car", Hue: 355, HueSpread: 10, SatLo: 0.5, SatHi: 0.9, ValLo: 0.4, ValHi: 0.8, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0, Shape: ShapeRects, ShapeCount: 4, ShapeHue: 0, NoiseStd: 6},
	{Name: "cat", Hue: 25, HueSpread: 14, SatLo: 0.2, SatHi: 0.6, ValLo: 0.4, ValHi: 0.8, Texture: TextureStripes, TexturePeriod: 5, TextureAngle: 0.9, Shape: ShapeCircles, ShapeCount: 2, ShapeHue: 10, NoiseStd: 10},
	{Name: "dog", Hue: 20, HueSpread: 16, SatLo: 0.2, SatHi: 0.5, ValLo: 0.3, ValHi: 0.7, Texture: TextureBlobs, TexturePeriod: 5, TextureAngle: 0.2, Shape: ShapeCircles, ShapeCount: 3, ShapeHue: -10, NoiseStd: 11},
	{Name: "firework", Hue: 300, HueSpread: 40, SatLo: 0.7, SatHi: 1.0, ValLo: 0.2, ValHi: 0.6, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0, Shape: ShapeLines, ShapeCount: 14, ShapeHue: 120, NoiseStd: 12},
	{Name: "horse", Hue: 15, HueSpread: 10, SatLo: 0.4, SatHi: 0.8, ValLo: 0.3, ValHi: 0.6, Texture: TextureStripes, TexturePeriod: 11, TextureAngle: 0.1, Shape: ShapeRects, ShapeCount: 2, ShapeHue: 100, NoiseStd: 8},
	{Name: "lizard", Hue: 90, HueSpread: 15, SatLo: 0.4, SatHi: 0.8, ValLo: 0.3, ValHi: 0.7, Texture: TextureChecker, TexturePeriod: 4, TextureAngle: 0.5, Shape: ShapeLines, ShapeCount: 3, ShapeHue: 40, NoiseStd: 9},
	{Name: "beach", Hue: 45, HueSpread: 8, SatLo: 0.3, SatHi: 0.6, ValLo: 0.7, ValHi: 1.0, Texture: TextureSinusoid, TexturePeriod: 3, TextureAngle: 0, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 6},
	{Name: "sunset", Hue: 20, HueSpread: 12, SatLo: 0.6, SatHi: 1.0, ValLo: 0.5, ValHi: 0.9, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 1.57, Shape: ShapeCircles, ShapeCount: 1, ShapeHue: 25, NoiseStd: 5},
	{Name: "mountain", Hue: 215, HueSpread: 10, SatLo: 0.2, SatHi: 0.5, ValLo: 0.4, ValHi: 0.8, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0.6, Shape: ShapeLines, ShapeCount: 7, ShapeHue: -30, NoiseStd: 7},
	{Name: "waterfall", Hue: 195, HueSpread: 12, SatLo: 0.3, SatHi: 0.6, ValLo: 0.6, ValHi: 0.95, Texture: TextureStripes, TexturePeriod: 4, TextureAngle: 1.57, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 9},
	{Name: "flower", Hue: 330, HueSpread: 22, SatLo: 0.6, SatHi: 1.0, ValLo: 0.5, ValHi: 0.95, Texture: TextureBlobs, TexturePeriod: 5, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 9, ShapeHue: 140, NoiseStd: 8},
	{Name: "forest", Hue: 130, HueSpread: 14, SatLo: 0.5, SatHi: 0.9, ValLo: 0.2, ValHi: 0.5, Texture: TextureStripes, TexturePeriod: 3, TextureAngle: 1.4, Shape: ShapeLines, ShapeCount: 10, ShapeHue: 15, NoiseStd: 10},
	{Name: "desert", Hue: 40, HueSpread: 8, SatLo: 0.4, SatHi: 0.7, ValLo: 0.6, ValHi: 0.9, Texture: TextureSinusoid, TexturePeriod: 2, TextureAngle: 0.2, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 6},
	{Name: "ocean", Hue: 225, HueSpread: 12, SatLo: 0.5, SatHi: 0.9, ValLo: 0.4, ValHi: 0.8, Texture: TextureSinusoid, TexturePeriod: 5, TextureAngle: 0.05, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 7},
	// --- categories 21-50 (50-Category dataset only) ---
	{Name: "tiger", Hue: 28, HueSpread: 8, SatLo: 0.6, SatHi: 1.0, ValLo: 0.4, ValHi: 0.8, Texture: TextureStripes, TexturePeriod: 6, TextureAngle: 1.1, Shape: ShapeCircles, ShapeCount: 2, ShapeHue: 0, NoiseStd: 9},
	{Name: "eagle", Hue: 25, HueSpread: 10, SatLo: 0.2, SatHi: 0.5, ValLo: 0.5, ValHi: 0.9, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0.3, Shape: ShapeLines, ShapeCount: 4, ShapeHue: -20, NoiseStd: 7},
	{Name: "penguin", Hue: 220, HueSpread: 6, SatLo: 0.05, SatHi: 0.3, ValLo: 0.3, ValHi: 0.9, Texture: TextureChecker, TexturePeriod: 12, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 3, ShapeHue: 0, NoiseStd: 6},
	{Name: "elephant", Hue: 260, HueSpread: 8, SatLo: 0.05, SatHi: 0.25, ValLo: 0.3, ValHi: 0.6, Texture: TextureBlobs, TexturePeriod: 8, TextureAngle: 0.2, Shape: ShapeCircles, ShapeCount: 2, ShapeHue: 10, NoiseStd: 8},
	{Name: "dolphin", Hue: 200, HueSpread: 10, SatLo: 0.4, SatHi: 0.8, ValLo: 0.5, ValHi: 0.9, Texture: TextureSinusoid, TexturePeriod: 4, TextureAngle: 0.1, Shape: ShapeCircles, ShapeCount: 2, ShapeHue: -10, NoiseStd: 6},
	{Name: "mushroom", Hue: 18, HueSpread: 14, SatLo: 0.3, SatHi: 0.7, ValLo: 0.3, ValHi: 0.7, Texture: TextureBlobs, TexturePeriod: 4, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 5, ShapeHue: 5, NoiseStd: 9},
	{Name: "cactus", Hue: 100, HueSpread: 10, SatLo: 0.5, SatHi: 0.9, ValLo: 0.3, ValHi: 0.6, Texture: TextureStripes, TexturePeriod: 7, TextureAngle: 1.5, Shape: ShapeLines, ShapeCount: 6, ShapeHue: 20, NoiseStd: 7},
	{Name: "autumn", Hue: 30, HueSpread: 20, SatLo: 0.6, SatHi: 1.0, ValLo: 0.4, ValHi: 0.8, Texture: TextureBlobs, TexturePeriod: 5, TextureAngle: 0.7, Shape: ShapeCircles, ShapeCount: 12, ShapeHue: 15, NoiseStd: 10},
	{Name: "night-sky", Hue: 240, HueSpread: 10, SatLo: 0.4, SatHi: 0.8, ValLo: 0.05, ValHi: 0.3, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 15, ShapeHue: 60, NoiseStd: 8},
	{Name: "city", Hue: 210, HueSpread: 14, SatLo: 0.1, SatHi: 0.4, ValLo: 0.3, ValHi: 0.7, Texture: TextureChecker, TexturePeriod: 6, TextureAngle: 0, Shape: ShapeRects, ShapeCount: 8, ShapeHue: 30, NoiseStd: 8},
	{Name: "bridge", Hue: 15, HueSpread: 10, SatLo: 0.3, SatHi: 0.6, ValLo: 0.4, ValHi: 0.7, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0.4, Shape: ShapeLines, ShapeCount: 9, ShapeHue: 195, NoiseStd: 7},
	{Name: "train", Hue: 0, HueSpread: 12, SatLo: 0.4, SatHi: 0.8, ValLo: 0.3, ValHi: 0.6, Texture: TextureStripes, TexturePeriod: 9, TextureAngle: 0.05, Shape: ShapeRects, ShapeCount: 5, ShapeHue: 210, NoiseStd: 8},
	{Name: "ski", Hue: 205, HueSpread: 8, SatLo: 0.05, SatHi: 0.3, ValLo: 0.7, ValHi: 1.0, Texture: TextureSinusoid, TexturePeriod: 2, TextureAngle: 0.5, Shape: ShapeLines, ShapeCount: 4, ShapeHue: 0, NoiseStd: 6},
	{Name: "castle", Hue: 45, HueSpread: 10, SatLo: 0.2, SatHi: 0.5, ValLo: 0.4, ValHi: 0.7, Texture: TextureChecker, TexturePeriod: 8, TextureAngle: 0, Shape: ShapeRects, ShapeCount: 6, ShapeHue: 170, NoiseStd: 7},
	{Name: "fruit", Hue: 50, HueSpread: 30, SatLo: 0.7, SatHi: 1.0, ValLo: 0.6, ValHi: 1.0, Texture: TextureBlobs, TexturePeriod: 6, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 7, ShapeHue: 70, NoiseStd: 7},
	{Name: "jewelry", Hue: 190, HueSpread: 25, SatLo: 0.5, SatHi: 0.9, ValLo: 0.6, ValHi: 1.0, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 10, ShapeHue: 130, NoiseStd: 5},
	{Name: "stamp", Hue: 60, HueSpread: 35, SatLo: 0.4, SatHi: 0.8, ValLo: 0.5, ValHi: 0.9, Texture: TextureChecker, TexturePeriod: 5, TextureAngle: 0, Shape: ShapeRects, ShapeCount: 4, ShapeHue: 180, NoiseStd: 6},
	{Name: "mask", Hue: 12, HueSpread: 18, SatLo: 0.5, SatHi: 0.9, ValLo: 0.3, ValHi: 0.7, Texture: TextureSinusoid, TexturePeriod: 8, TextureAngle: 0.9, Shape: ShapeCircles, ShapeCount: 4, ShapeHue: 160, NoiseStd: 9},
	{Name: "texture-wood", Hue: 26, HueSpread: 6, SatLo: 0.4, SatHi: 0.7, ValLo: 0.3, ValHi: 0.6, Texture: TextureStripes, TexturePeriod: 3, TextureAngle: 0.15, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 9},
	{Name: "texture-marble", Hue: 230, HueSpread: 8, SatLo: 0.05, SatHi: 0.2, ValLo: 0.6, ValHi: 0.95, Texture: TextureSinusoid, TexturePeriod: 7, TextureAngle: 0.6, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 10},
	{Name: "dinosaur", Hue: 140, HueSpread: 16, SatLo: 0.4, SatHi: 0.8, ValLo: 0.3, ValHi: 0.7, Texture: TextureBlobs, TexturePeriod: 7, TextureAngle: 0.3, Shape: ShapeCircles, ShapeCount: 3, ShapeHue: 25, NoiseStd: 8},
	{Name: "bus", Hue: 55, HueSpread: 10, SatLo: 0.6, SatHi: 1.0, ValLo: 0.5, ValHi: 0.9, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0, Shape: ShapeRects, ShapeCount: 5, ShapeHue: -25, NoiseStd: 6},
	{Name: "ship", Hue: 218, HueSpread: 12, SatLo: 0.4, SatHi: 0.8, ValLo: 0.4, ValHi: 0.8, Texture: TextureSinusoid, TexturePeriod: 3, TextureAngle: 0.02, Shape: ShapeRects, ShapeCount: 3, ShapeHue: 140, NoiseStd: 7},
	{Name: "door", Hue: 10, HueSpread: 14, SatLo: 0.3, SatHi: 0.7, ValLo: 0.3, ValHi: 0.6, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 1.57, Shape: ShapeRects, ShapeCount: 2, ShapeHue: 35, NoiseStd: 6},
	{Name: "glacier", Hue: 185, HueSpread: 8, SatLo: 0.1, SatHi: 0.4, ValLo: 0.7, ValHi: 1.0, Texture: TextureNone, TexturePeriod: 0, TextureAngle: 0.5, Shape: ShapeLines, ShapeCount: 6, ShapeHue: -10, NoiseStd: 5},
	{Name: "cave", Hue: 30, HueSpread: 10, SatLo: 0.2, SatHi: 0.5, ValLo: 0.1, ValHi: 0.4, Texture: TextureBlobs, TexturePeriod: 9, TextureAngle: 0.8, Shape: ShapeCircles, ShapeCount: 3, ShapeHue: 5, NoiseStd: 11},
	{Name: "festival", Hue: 320, HueSpread: 45, SatLo: 0.7, SatHi: 1.0, ValLo: 0.5, ValHi: 1.0, Texture: TextureBlobs, TexturePeriod: 4, TextureAngle: 0, Shape: ShapeCircles, ShapeCount: 11, ShapeHue: 90, NoiseStd: 9},
	{Name: "vegetable", Hue: 95, HueSpread: 20, SatLo: 0.6, SatHi: 1.0, ValLo: 0.4, ValHi: 0.8, Texture: TextureBlobs, TexturePeriod: 5, TextureAngle: 0.4, Shape: ShapeCircles, ShapeCount: 6, ShapeHue: -35, NoiseStd: 8},
	{Name: "coin", Hue: 48, HueSpread: 8, SatLo: 0.3, SatHi: 0.7, ValLo: 0.5, ValHi: 0.9, Texture: TextureChecker, TexturePeriod: 10, TextureAngle: 0.2, Shape: ShapeCircles, ShapeCount: 6, ShapeHue: 5, NoiseStd: 7},
	{Name: "aurora", Hue: 150, HueSpread: 25, SatLo: 0.5, SatHi: 0.9, ValLo: 0.2, ValHi: 0.6, Texture: TextureSinusoid, TexturePeriod: 5, TextureAngle: 1.2, Shape: ShapeNone, ShapeCount: 0, ShapeHue: 0, NoiseStd: 8},
}

// Archetypes returns the first n built-in category archetypes. It panics if
// n exceeds the number of built-in archetypes (50); synthesizing additional
// categories procedurally is possible but not needed for the paper's
// experiments.
func Archetypes(n int) []Archetype {
	if n < 0 || n > len(builtinArchetypes) {
		panic("dataset: archetype count out of range")
	}
	out := make([]Archetype, n)
	copy(out, builtinArchetypes[:n])
	return out
}

// NumBuiltinArchetypes reports how many named archetypes are available.
func NumBuiltinArchetypes() int { return len(builtinArchetypes) }
