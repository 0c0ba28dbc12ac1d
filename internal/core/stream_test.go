package core

import (
	"runtime"
	"testing"

	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/sparse"
)

// TestStreamRankingAllocations pins the allocation contract of the streaming
// top-K path, the one property of it no parity test sees: with a recycled
// result buffer a pass takes its scratch from the pool and allocates nothing
// the size of the collection, where materializing every score costs 8 bytes
// per image and per lane.
func TestStreamRankingAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so lanes are reallocated per range")
	}
	const k = 20

	// The initial query, over rotating probes as distinct users send them:
	// one small allocation per pass.
	ctx, _, _ := selectBenchProblem(t, 2000)
	ctx.Workers = 1 // the parallel path adds its goroutines
	buf := make([]Ranked, 0, k)
	probe := 0
	allocs := testing.AllocsPerRun(50, func() {
		probe = (probe + 331) % ctx.NumImages()
		ctx.Query = probe
		got, err := Euclidean{}.RankTopAppend(ctx, k, buf[:0])
		if err != nil || len(got) != k {
			t.Fatalf("ranked %d images, err %v", len(got), err)
		}
		buf = got
	})
	if allocs > 1 {
		t.Errorf("Euclidean.RankTopAppend allocates %.0f times per query with a recycled buffer, want at most 1", allocs)
	}

	// A batch an ingestion grew shares its parent's arenas: a query on each
	// new epoch allocates what the growth does and what a steady query does,
	// and no arena for a garbage collection to find in the old epoch's pool.
	// Each chain grows only its latest batch, as the engine does.
	row := ctx.Batch.VisualSet().Rows()[:1]
	grown := NewCollectionBatch(ctx.Batch.VisualSet().Rows())
	growth := testing.AllocsPerRun(20, func() { grown = grown.Append(row) })
	epoch := *ctx
	epoch.Visual, epoch.Batch = nil, NewCollectionBatch(ctx.Batch.VisualSet().Rows())
	perEpoch := testing.AllocsPerRun(20, func() {
		epoch.Batch = epoch.Batch.Append(row)
		if _, err := (Euclidean{}).RankTopAppend(&epoch, k, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if perEpoch > growth+1 {
		t.Errorf("a query on each new epoch allocates %.0f times, the growth alone %.0f: want at most one more", perEpoch, growth)
	}

	// A pass of at most minUnitRows rows is one unit, which the caller scores
	// without forking: at 500 images a query on every core (Workers: 0, at
	// least two of them) allocates what the serial one does. AllocsPerRun
	// would run it on one core, so the mallocs are counted here.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	small, _, _ := selectBenchProblem(t, 500)
	small.Workers = 0
	query := func() {
		probe = (probe + 331) % small.NumImages()
		small.Query = probe
		got, err := Euclidean{}.RankTopAppend(small, k, buf[:0])
		if err != nil || len(got) != k {
			t.Fatalf("ranked %d images, err %v", len(got), err)
		}
		buf = got
	}
	const queries = 50
	var before, after runtime.MemStats
	query() // fills the scratch pool
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if mallocs := (after.Mallocs - before.Mallocs) / queries; mallocs > 1 {
		t.Errorf("Euclidean.RankTopAppend on %d cores allocates %d times per 500-image query, want at most 1", runtime.GOMAXPROCS(0), mallocs)
	}

	// The two-SVM scoring pass over a context that carries its log index, as
	// the engine's do. What is pinned is that bytes per pass do not grow with
	// the collection — on the cold case: the query rotates and the log index
	// alternates between two copies of the log every pass (a commit produces
	// a new index), so nothing a pass needs was left behind by the one before. A distance row
	// kept per query cost 8 bytes per image here, a point wrapper per log
	// vector 16, and a row buffer per range for the log half would cost 8.
	// The RBF tile's column buffers are the pooled arena's
	// (kernel.TileScratch), so nothing scales per range: a pass allocates the
	// same few bytes at 2,000 images as at 16,000.
	bytesPerOp := func(rbfLog bool) func(n int) int64 {
		return func(n int) int64 {
			ctx, _, _ := selectBenchProblem(t, n)
			if ctx.LogIndex == nil {
				t.Fatal("the benchmark problem carries no log index")
			}
			ctx.Workers = 1
			scheme := LRF2SVMs{}
			if rbfLog {
				scheme.LogKernel = LogRBFKernel(ctx.LogIndex, n)
			}
			pre, err := scheme.Pretrain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cols := make([]*sparse.Vector, n)
			for i := range cols {
				col := ctx.LogIndex.Column(i)
				cols[i] = &col
			}
			copied, err := kernel.NewLogIndex(cols)
			if err != nil {
				t.Fatal(err)
			}
			logs := [2]*kernel.LogIndex{ctx.LogIndex, copied}
			buf := make([]Ranked, 0, k)
			pass := 0
			return steadyBytesPerPass(func() {
				pass++
				ctx.Query = pass * 331 % n
				ctx.LogIndex = logs[pass%2]
				got, err := pre.RankTopAppend(ctx, k, buf[:0])
				if err != nil || len(got) != k {
					t.Fatalf("ranked %d images, err %v", len(got), err)
				}
				buf = got
			})
		}
	}
	requireBytesDoNotGrowWithN(t, "Pretrained2SVMs.RankTopAppend", bytesPerOp(false))
	// An RBF log model scores row by row through svm.Model.Decision, over the
	// arena's column header: a header that escaped per row would cost 24
	// bytes an image.
	requireBytesDoNotGrowWithN(t, "Pretrained2SVMs.RankTopAppend, RBF log kernel", bytesPerOp(true))
}
