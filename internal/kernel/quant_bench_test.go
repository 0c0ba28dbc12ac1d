package kernel

import (
	"math/rand"
	"testing"

	"lrfcsvm/internal/linalg"
)

// BenchmarkQuantizedScan measures the approximate int8 scan against the
// equivalent exact float64 distance pass at cache-resident and
// memory-bound collection sizes.
func BenchmarkQuantizedScan(b *testing.B) {
	for _, n := range []int{2048, 16384, 65536} {
		rng := rand.New(rand.NewSource(9))
		const dim = 36
		vs := backendVectors(rng, n, dim)
		q := NewQuantizedSet(vs)
		query := make(linalg.Vector, dim)
		for d := range query {
			query[d] = rng.NormFloat64()
		}
		dst := make([]float64, n)
		b.Run("quant/n="+itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n * dim))
			for i := 0; i < b.N; i++ {
				q.ApproxSquaredDistances(query, 0, dst)
			}
		})
		set := NewDenseSet(vs)
		b.Run("exact/n="+itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n * dim * 8))
			for i := 0; i < b.N; i++ {
				scoreSquaredDistances(query, set, dst)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// scoreSquaredDistances is the float64 oracle pass: the same norm
// decomposition the core scoring path uses.
func scoreSquaredDistances(query linalg.Vector, set *DenseSet, dst []float64) {
	rows := set.mat.Data
	dim := set.mat.Cols
	qn := 0.0
	for _, x := range query {
		qn += x * x
	}
	norms := set.norms
	for i := range dst {
		row := rows[i*dim : (i+1)*dim]
		var s0, s1, s2, s3 float64
		d := 0
		for ; d+4 <= dim; d += 4 {
			s0 += row[d] * query[d]
			s1 += row[d+1] * query[d+1]
			s2 += row[d+2] * query[d+2]
			s3 += row[d+3] * query[d+3]
		}
		for ; d < dim; d++ {
			s0 += row[d] * query[d]
		}
		dst[i] = qn + norms[i] - 2*(((s0+s1)+s2)+s3)
	}
}
