package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// accumulateFunc is the signature shared by the scalar oracle and the tile
// driver bound to one dot-kernel pair.
type accumulateFunc func(gamma float64, coefs []float64, svs, xs *DenseSet, dst []float64)

// tiled binds the tile driver to one dot-kernel pair.
func tiled(k dotKernels) accumulateFunc {
	return func(gamma float64, coefs []float64, svs, xs *DenseSet, dst []float64) {
		blockAccumulateRBF(k, gamma, coefs, svs, xs, dst)
	}
}

// kernelsUnderTest lists every dot-kernel pair this build and CPU can run:
// always the pure-Go pair, and the assembly pair when it is available.
func kernelsUnderTest() []dotKernels {
	impls := []dotKernels{goKernels}
	if k, ok := asmKernels(); ok {
		impls = append(impls, k)
	}
	return impls
}

// biasFill pre-fills a destination with a non-trivial bias, offset by lo so
// shard-wise fills agree with a whole-set fill.
func biasFill(dst []float64, lo int) {
	for i := range dst {
		dst[i] = 0.125 * float64(lo+i)
	}
}

func accumulate(fn accumulateFunc, gamma float64, coefs []float64, svs, xs *DenseSet) []float64 {
	dst := make([]float64, xs.Len())
	biasFill(dst, 0)
	fn(gamma, coefs, svs, xs, dst)
	return dst
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

// TestBackendParity pins the tile driver over every available dot-kernel
// pair bit-for-bit against the scalar oracle across support-vector counts
// (odd and even, exercising the paired and trailing paths), row counts
// straddling the four-row group (a tile under four rows, whole groups, a
// last group that overlaps the one before it) and the tile size, up to the
// benchmark's 2,048-row scan range plus one, and dimensions exercising the
// vector tail.
func TestBackendParity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 3, 4, 7, 36} {
		for _, nsv := range []int{1, 2, 5, 31} {
			for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 66, 67, 68, 192, 2049} {
				svs := NewDenseSet(backendVectors(rng, nsv, dim))
				xs := NewDenseSet(backendVectors(rng, rows, dim))
				coefs := randomCoefs(rng, nsv)
				gamma := 0.5 + rng.Float64()
				want := accumulate(accumulateRBFScalar, gamma, coefs, svs, xs)
				for _, k := range kernelsUnderTest() {
					got := accumulate(tiled(k), gamma, coefs, svs, xs)
					checkParity(t, fmt.Sprintf("%s dim=%d nsv=%d rows=%d", k.name, dim, nsv, rows), got, want)
				}
			}
		}
	}

	// Far rows: the cases above never leave the exponential's window. Here
	// gamma = 1 and the rows sit at chosen squared distances from the first
	// support vector, eight rows inside the window, eight beyond it and
	// eight alternating, over two tiles and a 7-row tail, so one tile column
	// holds quads the vector routine takes whole, quads it must hand to
	// expOne and resume after, and both kinds of neighbour; the second
	// support vector is 20 away from the first, so the two columns of one
	// pair disagree about which rows are in the window. The scores start
	// from zero, not from a bias that would absorb the last bits of e^-600.
	const dim, gamma, rows = 36, 1.0, 2*rbfBlockRows + 7
	sv0 := backendVectors(rng, 1, dim)[0]
	away := func(r2 float64) linalg.Vector {
		u := backendVectors(rng, 1, dim)[0]
		u.ScaleInPlace(math.Sqrt(r2 / u.Dot(u)))
		for d := range u {
			u[d] += sv0[d]
		}
		return u
	}
	svVecs := []linalg.Vector{sv0, away(400), away(1e6), away(2), away(90)}
	rowVecs := make([]linalg.Vector, rows)
	for j := range rowVecs {
		in := j%24 < 8 || j%24 >= 16 && (j+j/24)%2 == 0
		if in {
			rowVecs[j] = away(1 + 689*rng.Float64())
		} else {
			rowVecs[j] = away(710 + 2000*rng.Float64())
		}
	}
	// The tail's first rows are the support vectors themselves: the norm
	// expansion of a point against itself is a rounding residue of either
	// sign, and the negative ones are what the clamp is for.
	copy(rowVecs[2*rbfBlockRows:], svVecs)
	inWindow := func(sv linalg.Vector, j int) bool { return gamma*rowVecs[j].SquaredDistance(sv) <= expWindow }
	var whole, none, mixed, disagree int
	for j := 0; j+4 <= rbfBlockRows; j += 4 {
		n := 0
		for l := 0; l < 4; l++ {
			if inWindow(svVecs[0], j+l) {
				n++
			}
			if inWindow(svVecs[0], j+l) != inWindow(svVecs[1], j+l) {
				disagree++
			}
		}
		switch n {
		case 4:
			whole++
		case 0:
			none++
		default:
			mixed++
		}
	}
	if whole == 0 || none == 0 || mixed == 0 || disagree == 0 {
		t.Fatalf("far rows: first tile has %d quads in the window, %d outside, %d mixed and %d rows the pair disagrees on; want some of each", whole, none, mixed, disagree)
	}
	xs := NewDenseSet(rowVecs)
	clamped := 0
	self := make([]float64, 1)
	for i, sv := range svVecs[:2] { // the pair every support-vector count below scores
		j := 2*rbfBlockRows + i
		dotRowsGo(xs.mat.Row(j), 1, dim, sv, self)
		if xs.norms[j]+xs.norms[j]-2*self[0] < 0 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("far rows: neither support vector's expansion against itself is negative; the clamp is not exercised")
	}
	for _, nsv := range []int{2, 3, 5} {
		svs := NewDenseSet(svVecs[:nsv])
		coefs := randomCoefs(rng, nsv)
		want := make([]float64, rows)
		accumulateRBFScalar(gamma, coefs, svs, xs, want)
		for _, k := range kernelsUnderTest() {
			got := make([]float64, rows)
			blockAccumulateRBF(k, gamma, coefs, svs, xs, got)
			checkParity(t, fmt.Sprintf("%s far rows nsv=%d", k.name, nsv), got, want)
		}
	}
}

// TestBackendParitySpecialValues holds the contract on rows no finite
// arithmetic reaches: NaN and infinite components and squares that overflow
// must come out of every dot-kernel pair exactly as out of the oracle.
func TestBackendParitySpecialValues(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	const dim = 36
	rows := backendVectors(rng, 70, dim)
	rows[0][0] = math.NaN()
	rows[5][35] = math.NaN() // scalar tail of the vector loop's last quad
	rows[17][3] = math.Inf(1)
	rows[18][4] = math.Inf(-1)
	rows[40][9] = 1e200 // squared norm overflows to +Inf
	rows[69][1] = -1e200
	xs := NewDenseSet(rows)
	for _, nsv := range []int{1, 2, 5} {
		svs := NewDenseSet(backendVectors(rng, nsv, dim))
		coefs := randomCoefs(rng, nsv)
		want := accumulate(accumulateRBFScalar, 0.7, coefs, svs, xs)
		if !math.IsNaN(want[0]) || math.IsNaN(want[1]) {
			t.Fatalf("nsv=%d: oracle gives dst[0]=%v dst[1]=%v, want NaN only on the poisoned row", nsv, want[0], want[1])
		}
		for _, k := range kernelsUnderTest() {
			checkParity(t, fmt.Sprintf("%s nsv=%d", k.name, nsv), accumulate(tiled(k), 0.7, coefs, svs, xs), want)
		}
	}
}

// TestAccumulateSetMatchesOracle pins the production entry point, on
// whichever dot kernels this build and CPU picked, bit-for-bit against the
// scalar oracle, and checks Backend names that pick.
func TestAccumulateSetMatchesOracle(t *testing.T) {
	t.Parallel()
	wantName := goKernels.name
	if k, ok := asmKernels(); ok {
		wantName = k.name
	}
	if Backend() != wantName {
		t.Fatalf("Backend() = %q, want %q", Backend(), wantName)
	}
	rng := rand.New(rand.NewSource(3))
	const dim = 36
	for _, nsv := range []int{1, 2, 9} {
		for _, rows := range []int{1, 64, 2049} {
			svs := NewDenseSet(backendVectors(rng, nsv, dim))
			xs := NewDenseSet(backendVectors(rng, rows, dim))
			coefs := randomCoefs(rng, nsv)
			k := RBF{Gamma: 0.5 + rng.Float64()}
			got := make([]float64, rows)
			biasFill(got, 0)
			k.AccumulateSet(coefs, svs, xs, got)
			want := accumulate(accumulateRBFScalar, k.Gamma, coefs, svs, xs)
			checkParity(t, fmt.Sprintf("AccumulateSet on %s nsv=%d rows=%d", Backend(), nsv, rows), got, want)
		}
	}
}

// TestSquaredDistancesMatchLinalg holds the distance method every initial
// query and query prior runs on to linalg's expansion over MulVecInto, bit
// for bit: every backend's row dot to the matrix-vector product, and
// DenseSet.SquaredDistancesInto, on the backend this build and CPU picked, to
// RowSquaredDistancesNormInto — rows with a NaN, an infinity and an
// overflowing square included.
func TestSquaredDistancesMatchLinalg(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for _, dim := range []int{1, 3, 4, 7, 36, 37} {
		for _, rows := range []int{1, 5, 64, 2049} {
			vs := backendVectors(rng, rows, dim)
			if rows >= 5 {
				vs[1][dim-1] = math.NaN()
				vs[2][0] = math.Inf(-1)
				vs[3][dim/2] = 1e200
			}
			set := NewDenseSet(vs)
			x := backendVectors(rng, 1, dim)[0]
			label := fmt.Sprintf("dim=%d rows=%d", dim, rows)

			want := make(linalg.Vector, rows)
			set.mat.MulVecInto(want, x)
			for _, k := range kernelsUnderTest() {
				got := make([]float64, rows)
				k.one(set.mat.Data, rows, dim, x, got)
				checkParity(t, k.name+" row dot "+label, got, want)
			}

			set.mat.RowSquaredDistancesNormInto(want, x, set.norms)
			got := make([]float64, rows)
			set.SquaredDistancesInto(got, x)
			checkParity(t, "SquaredDistancesInto on "+Backend()+" "+label, got, want)
		}
	}
}

// TestBackendParitySharded scores a sharded collection concurrently over
// every dot-kernel pair — shard counts {1,2,7} × workers {1,4} — and pins
// the concatenated scores bit-for-bit against a serial oracle pass over the
// whole set. Run under -race this also proves the assembly kernels are
// data-race free across concurrent workers.
func TestBackendParitySharded(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	const dim = 36
	const nsv = 9
	const gamma = 0.8
	svs := NewDenseSet(backendVectors(rng, nsv, dim))
	coefs := randomCoefs(rng, nsv)
	for _, numShards := range []int{1, 2, 7} {
		const shardSize = 29
		n := numShards * shardSize
		vs := backendVectors(rng, n, dim)
		sharded := NewShardedSet(vs, shardSize)
		if sharded.NumShards() != numShards {
			t.Fatalf("built %d shards, want %d", sharded.NumShards(), numShards)
		}
		want := accumulate(accumulateRBFScalar, gamma, coefs, svs, NewDenseSet(vs))
		for _, k := range kernelsUnderTest() {
			score := tiled(k)
			for _, workers := range []int{1, 4} {
				got := make([]float64, n)
				var wg sync.WaitGroup
				work := make(chan int)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for s := range work {
							lo := sharded.ShardStart(s)
							sh := sharded.Shard(s)
							dst := got[lo : lo+sh.Len()]
							biasFill(dst, lo)
							score(gamma, coefs, svs, sh, dst)
						}
					}()
				}
				for s := 0; s < sharded.NumShards(); s++ {
					work <- s
				}
				close(work)
				wg.Wait()
				checkParity(t, fmt.Sprintf("%s shards=%d workers=%d", k.name, numShards, workers), got, want)
			}
		}
	}
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
// kernel.accumulate_ns_per_row_sv of the benchmark of record is made of. The
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
		b.Run(k.name+"/accumulate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blockAccumulateRBF(k, 1.0/dim, coefs, svs, xs, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*nsv), "ns/row·sv")
		})
		after(k.name, func() { blockAccumulateRBF(k, 1.0/dim, coefs, svs, probe, dst[:probeRows]) })
	}
}
