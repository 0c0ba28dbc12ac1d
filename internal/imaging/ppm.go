package imaging

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// EncodePPM writes the image to w in binary PPM (P6) format.
func EncodePPM(w io.Writer, im *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.Width, im.Height); err != nil {
		return fmt.Errorf("imaging: write ppm header: %w", err)
	}
	if _, err := bw.Write(im.Pix); err != nil {
		return fmt.Errorf("imaging: write ppm pixels: %w", err)
	}
	return bw.Flush()
}

// SavePPM writes the image to the named file in PPM format.
func SavePPM(path string, im *Image) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imaging: create %s: %w", path, err)
	}
	defer f.Close()
	if err := EncodePPM(f, im); err != nil {
		return err
	}
	return f.Close()
}
