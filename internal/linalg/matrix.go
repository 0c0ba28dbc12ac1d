package linalg

import "fmt"

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a Vector backed by the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Matrix) Row(i int) Vector {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.Rows, m.Cols))
	}
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// MulVecInto stores m*v into dst (which must have length m.Rows) and returns
// dst. It allocates nothing, so hot ranking loops can reuse the destination.
func (m *Matrix) MulVecInto(dst, v Vector) Vector {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecInto destination length %d, want %d", len(dst), m.Rows))
	}
	v = v[:m.Cols]
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		// Four independent accumulators break the loop-carried add
		// dependency; the combine order is fixed, so results are
		// deterministic (though grouped differently than a plain
		// left-to-right sum).
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= len(row); j += 4 {
			s0 += row[j] * v[j]
			s1 += row[j+1] * v[j+1]
			s2 += row[j+2] * v[j+2]
			s3 += row[j+3] * v[j+3]
		}
		for ; j < len(row); j++ {
			s0 += row[j] * v[j]
		}
		dst[i] = ((s0 + s1) + s2) + s3
	}
	return dst
}

// RowSquaredNorms stores ||row_i||^2 for every row into dst (which must have
// length m.Rows) and returns dst.
func (m *Matrix) RowSquaredNorms(dst Vector) Vector {
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: RowSquaredNorms destination length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for _, x := range row {
			s += x * x
		}
		dst[i] = s
	}
	return dst
}

// RowSquaredDistancesNormInto stores ||row_i - v||^2 for every row into dst
// using the expansion ||x||^2 + ||v||^2 - 2<x,v> with the precomputed row
// norms, so the whole batch is one matrix-vector product. Cancellation makes
// the result differ from the direct subtraction by O(1e-15) relative error;
// negative results from rounding are clamped to zero.
func (m *Matrix) RowSquaredDistancesNormInto(dst, v, rowNorms Vector) Vector {
	if len(rowNorms) != m.Rows {
		panic(fmt.Sprintf("linalg: RowSquaredDistancesNormInto norms length %d, want %d", len(rowNorms), m.Rows))
	}
	m.MulVecInto(dst, v)
	vv := v.Dot(v)
	for i := range dst {
		d := rowNorms[i] + vv - 2*dst[i]
		if d < 0 {
			d = 0
		}
		dst[i] = d
	}
	return dst
}

// FromRows builds a matrix whose rows are the given vectors.
// All vectors must have the same length; an empty input yields a 0x0 matrix.
func FromRows(rows []Vector) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: FromRows ragged input: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}
