package linalg

import (
	"math"
	"testing"
)

func TestMatrixOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.Row(2)
}

func TestMatrixRowColViews(t *testing.T) {
	m := FromRows([]Vector{{0, 1, 2}, {3, 4, 5}})
	row := m.Row(1)
	if !row.Equal(Vector{3, 4, 5}, 0) {
		t.Errorf("Row(1) = %v", row)
	}
	// Row is a view: mutations must be visible in the matrix.
	row[0] = 42
	if m.Data[1*m.Cols+0] != 42 {
		t.Error("Row view mutation not visible in matrix")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Errorf("FromRows(nil) shape = %dx%d", m.Rows, m.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([]Vector{{1, 2}, {1}})
}

func TestMatrixMulVecInto(t *testing.T) {
	rng := NewRNG(3)
	m := NewMatrix(7, 11)
	v := make(Vector, 11)
	for i := range m.Data {
		m.Data[i] = rng.Range(-2, 2)
	}
	for j := range v {
		v[j] = rng.Range(-2, 2)
	}
	dst := make(Vector, 7)
	m.MulVecInto(dst, v)
	for i := 0; i < m.Rows; i++ {
		if want := m.Row(i).Dot(v); math.Abs(dst[i]-want) > 1e-12 {
			t.Errorf("MulVecInto[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestRowSquaredNorms(t *testing.T) {
	m := FromRows([]Vector{{3, 4}, {0, 0}, {1, -1}})
	got := m.RowSquaredNorms(make(Vector, 3))
	want := Vector{25, 0, 2}
	if !got.Equal(want, 1e-15) {
		t.Errorf("RowSquaredNorms = %v, want %v", got, want)
	}
}

func TestRowSquaredDistancesVariants(t *testing.T) {
	rng := NewRNG(5)
	rows := make([]Vector, 9)
	for i := range rows {
		rows[i] = make(Vector, 6)
		for j := range rows[i] {
			rows[i][j] = rng.Range(-3, 3)
		}
	}
	m := FromRows(rows)
	v := rows[4]
	norms := m.RowSquaredNorms(make(Vector, len(rows)))

	fast := m.RowSquaredDistancesNormInto(make(Vector, len(rows)), v, norms)
	for i, r := range rows {
		want := r.SquaredDistance(v)
		if math.Abs(fast[i]-want) > 1e-12 {
			t.Errorf("RowSquaredDistancesNormInto[%d] = %v, want %v", i, fast[i], want)
		}
	}
	if fast[4] < 0 {
		t.Error("self-distance must be clamped to >= 0")
	}
}
