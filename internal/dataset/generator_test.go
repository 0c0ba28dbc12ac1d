package dataset

import (
	"bytes"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	valid := Spec{Categories: 5, ImagesPerCategory: 10, Width: 32, Height: 32, Seed: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []Spec{
		{Categories: 0, ImagesPerCategory: 10, Width: 32, Height: 32},
		{Categories: NumBuiltinArchetypes() + 1, ImagesPerCategory: 10, Width: 32, Height: 32},
		{Categories: 5, ImagesPerCategory: 0, Width: 32, Height: 32},
		{Categories: 5, ImagesPerCategory: 10, Width: 4, Height: 32},
		{Categories: 5, ImagesPerCategory: 10, Width: 32, Height: 32, ExtraNoise: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestDefaultSpecs(t *testing.T) {
	d20 := Default20(1)
	if d20.Categories != 20 || d20.ImagesPerCategory != 100 {
		t.Errorf("Default20 = %+v", d20)
	}
	d50 := Default50(1)
	if d50.Categories != 50 || d50.ImagesPerCategory != 100 {
		t.Errorf("Default50 = %+v", d50)
	}
	if err := d20.Validate(); err != nil {
		t.Errorf("Default20 invalid: %v", err)
	}
	if err := d50.Validate(); err != nil {
		t.Errorf("Default50 invalid: %v", err)
	}
}

func TestArchetypesCount(t *testing.T) {
	if NumBuiltinArchetypes() < 50 {
		t.Fatalf("need at least 50 archetypes for the 50-Category dataset, have %d", NumBuiltinArchetypes())
	}
	a := Archetypes(20)
	if len(a) != 20 {
		t.Fatalf("Archetypes(20) returned %d", len(a))
	}
	names := make(map[string]bool)
	for _, arch := range Archetypes(NumBuiltinArchetypes()) {
		if arch.Name == "" {
			t.Error("archetype with empty name")
		}
		if names[arch.Name] {
			t.Errorf("duplicate archetype name %q", arch.Name)
		}
		names[arch.Name] = true
		if arch.SatLo > arch.SatHi || arch.ValLo > arch.ValHi {
			t.Errorf("archetype %q has inverted ranges", arch.Name)
		}
	}
}

func TestArchetypesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Archetypes(NumBuiltinArchetypes() + 1)
}

func newTestGen(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(Spec{Categories: 6, ImagesPerCategory: 4, Width: 32, Height: 32, Seed: 7})
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestGeneratorCounts(t *testing.T) {
	g := newTestGen(t)
	if g.NumImages() != 24 {
		t.Errorf("NumImages = %d, want 24", g.NumImages())
	}
	if g.NumCategories() != 6 {
		t.Errorf("NumCategories = %d, want 6", g.NumCategories())
	}
}

func TestGeneratorItemMapping(t *testing.T) {
	g := newTestGen(t)
	item := g.Item(0)
	if item.Category != 0 {
		t.Errorf("image 0 category = %d", item.Category)
	}
	item = g.Item(5)
	if item.Category != 1 {
		t.Errorf("image 5 category = %d, want 1", item.Category)
	}
	item = g.Item(23)
	if item.Category != 5 {
		t.Errorf("image 23 category = %d, want 5", item.Category)
	}
	if item.CategoryName != g.archetypes[5].Name {
		t.Error("CategoryName mismatch")
	}
}

func TestGeneratorItemOutOfRangePanics(t *testing.T) {
	g := newTestGen(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Item(24)
}

func TestGeneratorLabels(t *testing.T) {
	g := newTestGen(t)
	labels := g.Labels()
	if len(labels) != 24 {
		t.Fatalf("Labels length = %d", len(labels))
	}
	for i, l := range labels {
		if l != i/4 {
			t.Fatalf("label[%d] = %d, want %d", i, l, i/4)
		}
	}
}

func TestRenderDeterministic(t *testing.T) {
	g1 := newTestGen(t)
	g2 := newTestGen(t)
	for _, idx := range []int{0, 7, 23} {
		a := g1.Render(idx)
		b := g2.Render(idx)
		if !bytes.Equal(a.Pix, b.Pix) {
			t.Errorf("Render(%d) is not deterministic", idx)
		}
	}
}

func TestRenderDistinctImages(t *testing.T) {
	g := newTestGen(t)
	a := g.Render(0)
	b := g.Render(1)
	if bytes.Equal(a.Pix, b.Pix) {
		t.Error("two images of the same category are pixel-identical")
	}
	c := g.Render(5)
	if bytes.Equal(a.Pix, c.Pix) {
		t.Error("images of different categories are pixel-identical")
	}
}

func TestRenderDifferentSeeds(t *testing.T) {
	g1, _ := NewGenerator(Spec{Categories: 3, ImagesPerCategory: 2, Width: 32, Height: 32, Seed: 1})
	g2, _ := NewGenerator(Spec{Categories: 3, ImagesPerCategory: 2, Width: 32, Height: 32, Seed: 2})
	if bytes.Equal(g1.Render(0).Pix, g2.Render(0).Pix) {
		t.Error("different seeds produced identical images")
	}
}

func TestRenderCoversAllArchetypeFamilies(t *testing.T) {
	// Rendering one image from every built-in archetype must not panic and
	// must produce non-constant images.
	g, err := NewGenerator(Spec{Categories: NumBuiltinArchetypes(), ImagesPerCategory: 1, Width: 32, Height: 32, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumImages(); i++ {
		im := g.Render(i)
		first := im.Pix[0]
		constant := true
		for _, p := range im.Pix {
			if p != first {
				constant = false
				break
			}
		}
		if constant {
			t.Errorf("category %q rendered a constant image", g.Item(i).CategoryName)
		}
	}
}

func TestNewGeneratorRejectsBadSpec(t *testing.T) {
	if _, err := NewGenerator(Spec{}); err == nil {
		t.Error("expected error for zero spec")
	}
}
