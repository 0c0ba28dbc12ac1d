package core

import (
	"math"
	"runtime"
	"sync/atomic"
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

// TestSeededStep3Allocations pins the seed block of LRF-CSVM's step 3 to the
// pooled arenas: a steady refine's pass allocates as many times with its
// seeds as without them. The seed rows are gathered into the arena's block,
// and the linear log model's weights scattered into its table, both kept
// between passes; a block or table that escaped per pass would show here.
// The passes of 12 refines are cycled through, as a server's refines come.
// It also requires the seeds to pay: over the 12 passes, on one worker, the
// seeded passes evaluate at most 0.8 times the kernel pairs the unseeded
// ones do, their own included (kernel.CountPairs).
func TestSeededStep3Allocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so lanes are reallocated per range")
	}
	const k = 20
	coll := makeDenseLogCollection(t, 50, 100, 1000, 29)
	batch := NewCollectionBatch(coll.visual)
	type refine struct {
		ctx  *QueryContext
		pass scoring
	}
	var refines []refine
	for _, q := range []int{7, 432, 1234, 2600, 3888, 4999} {
		for _, judged := range []int{20, 40} {
			ctx, err := coll.queryContext(q, judged).validated(true)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Batch, ctx.Workers = batch, 1
			pass, _, err := trainCSVM(ctx, CSVMParams{}, selectLogAssisted)
			if err != nil {
				t.Fatal(err)
			}
			defer pass.release()
			if math.IsInf(seededFloor(t, ctx, pass.seeds, k), -1) {
				t.Fatalf("query %d, %d judged: the pass starts from no floor", q, judged)
			}
			refines = append(refines, refine{ctx, pass})
		}
	}
	buf := make([]Ranked, 0, k)
	i := 0
	pass := func(seeded bool) {
		r := refines[i%len(refines)]
		i++
		seeds := seedBlock{}
		if seeded {
			seeds = r.pass.seeds
		}
		got, err := rankTopRanges(r.ctx, batch, CandidateSet{first: r.pass.lane.first}, k, buf[:0], r.pass.fn, seeds)
		if err != nil || len(got) != k {
			t.Fatalf("ranked %d images, err %v", len(got), err)
		}
		buf = got
	}
	allocs := func(seeded bool) float64 { return testing.AllocsPerRun(48, func() { pass(seeded) }) }
	if seeded, unseeded := allocs(true), allocs(false); seeded != unseeded {
		t.Errorf("a seeded step-3 pass allocates %.0f times, unseeded %.0f: want the same", seeded, unseeded)
	}
	pairs := func(seeded bool) int64 {
		var n atomic.Int64
		defer kernel.CountPairs(&n)()
		for range refines {
			pass(seeded)
		}
		return n.Load()
	}
	if seeded, unseeded := pairs(true), pairs(false); float64(seeded) > 0.8*float64(unseeded) {
		t.Errorf("seeded step-3 passes evaluate %d kernel pairs, unseeded %d: want at most 0.8 times", seeded, unseeded)
	} else {
		t.Logf("seeded step-3 passes evaluate %d kernel pairs, unseeded %d", seeded, unseeded)
	}
}

// TestSeededTwoSVMsAllocations is TestSeededStep3Allocations for LRF-2SVMs'
// pass, seeded by the rows the log vouches for, on the ingest-commit
// workload's shape (100 categories of 200 images, 2,000 log sessions): a
// steady pass allocates as many times with its seeds as without them — the
// pick's sessions, images and tally live in the arena, kept between passes
// — and over 12 refines (6 queries, 20 and 40 judged), on one worker, the
// seeded passes evaluate at most 0.85 times the kernel pairs the unseeded
// ones do, their own included.
func TestSeededTwoSVMsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop arenas at random, so lanes are reallocated per range")
	}
	const k = 20
	coll := makeDenseLogCollection(t, 100, 200, 2000, 29)
	batch := NewCollectionBatch(coll.visual)
	type refine struct {
		ctx  *QueryContext
		pass scoring
	}
	var refines []refine
	for _, q := range []int{7, 4321, 12345, 16000, 18888, 19999} {
		for _, judged := range []int{20, 40} {
			ctx, err := coll.queryContext(q, judged).validated(true)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Batch, ctx.Workers = batch, 1
			pass, err := LRF2SVMs{}.scorer(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer pass.release()
			refines = append(refines, refine{ctx, pass})
		}
	}
	buf := make([]Ranked, 0, k)
	i := 0
	pass := func(seeded bool) {
		r := refines[i%len(refines)]
		i++
		seeds := seedBlock{}
		if seeded {
			seeds = r.pass.seeds
		}
		got, err := rankTopRanges(r.ctx, batch, CandidateSet{}, k, buf[:0], r.pass.fn, seeds)
		if err != nil || len(got) != k {
			t.Fatalf("ranked %d images, err %v", len(got), err)
		}
		buf = got
	}
	// The pick's buffers grow to the largest refine's in one cycle.
	for range refines {
		pass(true)
	}
	allocs := func(seeded bool) float64 { return testing.AllocsPerRun(48, func() { pass(seeded) }) }
	if seeded, unseeded := allocs(true), allocs(false); seeded != unseeded {
		t.Errorf("a seeded LRF-2SVMs pass allocates %.0f times, unseeded %.0f: want the same", seeded, unseeded)
	}
	pairs := func(seeded bool) int64 {
		var n atomic.Int64
		defer kernel.CountPairs(&n)()
		for range refines {
			pass(seeded)
		}
		return n.Load()
	}
	if seeded, unseeded := pairs(true), pairs(false); float64(seeded) > 0.85*float64(unseeded) {
		t.Errorf("seeded LRF-2SVMs passes evaluate %d kernel pairs, unseeded %d: want at most 0.85 times", seeded, unseeded)
	} else {
		t.Logf("seeded LRF-2SVMs passes evaluate %d kernel pairs, unseeded %d", seeded, unseeded)
	}
}
