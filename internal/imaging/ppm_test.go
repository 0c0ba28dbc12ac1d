package imaging

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lrfcsvm/internal/linalg"
)

// TestPPMHeader pins the encoding: the P6 header, then the pixels as they
// are stored.
func TestPPMHeader(t *testing.T) {
	im := New(13, 7)
	im.DrawGradient(Color{0, 0, 0}, Color{1, 0.5, 0.25}, 0.3)
	im.AddNoise(linalg.NewRNG(3), 10)
	var buf bytes.Buffer
	if err := EncodePPM(&buf, im); err != nil {
		t.Fatal(err)
	}
	pix, ok := bytes.CutPrefix(buf.Bytes(), []byte("P6\n13 7\n255\n"))
	if !ok {
		t.Fatalf("unexpected header: %q", buf.Bytes()[:14])
	}
	if !bytes.Equal(pix, im.Pix) {
		t.Error("encoded pixel data differs from the image's")
	}
}

func TestSavePPM(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.ppm")
	im := New(5, 5)
	im.DrawChecker(Color{1, 0, 0}, Color{0, 0, 1}, 2)
	if err := SavePPM(path, im); err != nil {
		t.Fatalf("SavePPM: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := EncodePPM(&want, im); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("saved file differs from the encoding")
	}
}
