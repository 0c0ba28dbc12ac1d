package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"lrfcsvm/internal/linalg"
)

func backendVectors(rng *rand.Rand, n, dim int) []linalg.Vector {
	vs := make([]linalg.Vector, n)
	for i := range vs {
		v := make(linalg.Vector, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		vs[i] = v
	}
	return vs
}

// kernelsUnderTest lists every member this build and CPU can run: always the
// pure-Go one, then each assembly member the CPU has.
func kernelsUnderTest() []dotKernels {
	return append([]dotKernels{goKernels}, asmKernels()...)
}

// biasFill pre-fills a destination with a non-trivial bias, offset by lo so
// shard-wise fills agree with a whole-set fill.
func biasFill(dst []float64, lo int) {
	for i := range dst {
		dst[i] = 0.125 * float64(lo+i)
	}
}

// sameBits reports bit-identity, treating any two NaNs as equal (the sign
// and payload of a propagated NaN depend on operand order, which the
// contract does not pin).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkParity(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Fatalf("%s: dst[%d] = %.17g, reference %.17g (not bit-identical)", label, j, got[j], want[j])
		}
	}
}

func randomCoefs(rng *rand.Rand, n int) []float64 {
	coefs := make([]float64, n)
	for i := range coefs {
		coefs[i] = rng.NormFloat64()
	}
	return coefs
}

// chainSink keeps xorshiftChain's result alive.
var chainSink uint64

// xorshiftChain is steps dependent integer operations: no vector
// instruction, no memory, nothing to overlap, so what it takes is the clock
// the core runs at while it does.
func xorshiftChain(x uint64, steps int) uint64 {
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkBackends times, per backend, the exponential over one tile column
// of scan-like arguments (ns/elem) and the whole tile driver over a
// 4,096 × 36 range against 30 support vectors (ns/row·sv): the two numbers
// kernel.accumulate_ns_per_row_sv of the benchmark of record is made of; and
// the row dot, a query's distance scan, over 512 and 4,096 rows (ns/row). The
// after lanes time a fixed integer chain right after the tile driver has
// scored a 500-row range (µs/chain, the tile not counted) and, as none/after,
// with nothing before it: a chain that is slower after a backend's tile than
// after none is the core clocking down for that backend's instruction mix,
// which everything that runs between two scans pays.
func BenchmarkBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const dim, nsv, rows, probeRows = 36, 30, 4096, 500
	svs := NewDenseSet(backendVectors(rng, nsv, dim))
	xs := NewDenseSet(backendVectors(rng, rows, dim))
	coefs := randomCoefs(rng, nsv)
	dst := make([]float64, rows)
	args := make([]float64, rbfBlockRows)
	col := make([]float64, rbfBlockRows)
	for i := range args {
		args[i] = -60 * rng.Float64()
	}
	probe := xs.SliceInto(NewSetView(), 0, probeRows)
	after := func(name string, tile func()) {
		for _, steps := range []int{20_000, 200_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/after/%dk", name, steps/1000), func(b *testing.B) {
				var chain time.Duration
				for i := 0; i < b.N; i++ {
					tile()
					start := time.Now()
					chainSink += xorshiftChain(uint64(i)|1, steps)
					chain += time.Since(start)
				}
				b.ReportMetric(float64(chain.Microseconds())/float64(b.N), "µs/chain")
			})
		}
	}
	after("none", func() {})
	for _, k := range kernelsUnderTest() {
		b.Run(k.name+"/exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(col, args)
				k.exp(col)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/elem")
		})
		ts := new(TileScratch)
		b.Run(k.name+"/accumulate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rbfTiles(k, 1.0/dim, coefs, svs, xs, dst, nil, nil, PositiveSums{}, ts, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*nsv), "ns/row·sv")
		})
		for _, n := range []int{512, rows} {
			b.Run(fmt.Sprintf("%s/rowdot/%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.one(xs.mat.Data, n, dim, svs.mat.Row(i%nsv), dst)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
		}
		after(k.name, func() { rbfTiles(k, 1.0/dim, coefs, svs, probe, dst[:probeRows], nil, nil, PositiveSums{}, ts, nil) })
	}
}
