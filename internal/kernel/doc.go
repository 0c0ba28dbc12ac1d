// Package kernel provides the Mercer kernels used by the SVM solver, over
// both dense visual-feature vectors and sparse user-log vectors, plus Gram
// matrix computation (GramSet, and the solver's Cache), the batched scoring
// primitives of the query hot path, and the IVF centroid index that prunes
// initial queries.
//
// The paper trains all schemes with the Gaussian RBF kernel. Two kernels
// exist because two are trained: RBF over the visual descriptors and Linear,
// the log modality's default co-judgment kernel (an ablation swaps in RBF).
// A Kernel evaluates one pair (Eval) or one dense point against a DenseSet
// (EvalSet). Beside them each pairing a modality uses has one batched path:
// RBF.EvalBatch fills the trainer's visual Gram rows, RBF.AccumulateSet
// scores a scan's visual half and the session index its linear log half
// (below); the RBF log ablation goes pair by pair through Eval. All of
// them share one exponential, expOne (exp.go).
//
// # Compute backends
//
// RBF.AccumulateSet and AccumulateBounded, the fused distance+exp pass of
// every SVM scoring scan, have one implementation: a driver of 64-row tiles
// (row data L1-resident across support-vector passes, exponentials batched
// over a tile column) over four routines — the RBF arguments of a tile
// against a pair of support vectors, the row dot against one, the in-place
// exponential and the fold of a pair's two columns into the scores. A tile
// first writes its rows' query prior (Prior: the row dot against the query,
// DenseSet.SquaredDistancesInto's expansion, the square root and the
// weight), so a pass reads each row from memory once, then computes the
// columns of the positive-coefficient support vectors; in a top-K pass (a
// Bound) a row they bound below the pass's floor, or one the pass scored
// already, is skipped, the other columns are computed for the surviving rows
// only, and every column folds in the model's order, so a scored row's bits
// do not depend on what was skipped. A pass may also record, or read in place of the
// columns of deferred support vectors, a lane of each row's sum of
// positive-coefficient columns (PositiveSums): LRF-CSVM's step 3 bounds the
// support vectors its step 1 shares by the sums step 1's pass recorded.
// The routines are the widest member the build and CPU run, fixed at
// package initialisation: AVX-512 or AVX2 assembly on amd64 without the
// purego tag, pure Go otherwise. Backend() names it ("avx512",
// "avx2" or "unrolled"; GET /api/status's "kernel_backend"), and package svm
// picks its SMO step's member by the same fact (AVX2). The row dot also
// computes the query distances (DenseSet.SquaredDistancesInto, which the
// prior and the Euclidean scheme weigh); the log
// modality's linear decision pass has its own routines, in Go on every
// build, written so that no build fuses their multiply-adds.
//
// # Sparse products
//
// The log modality has one sparse product method: points inverted by
// session (SparseSVIndex), read by one walk (LinearAccumulateWeights). The
// scans walk
// a linear model's weight vector over sessions, w = Σ_t c_t·sv_t, built once
// per model (LinearWeights), through the collection's log inverted by
// session — each session's judged images, ascending — so a scan range costs
// the cells of w's sessions in it (LinearAccumulateWeights); its scores
// differ from the per-support-vector sum in the last bits only. That index is
// the log itself — feedbacklog.Log keeps it, a row per session (AppendRow) —
// and one half of the collection's log index (LogIndex), which holds a copy;
// the other half, which feedbacklog.Log.ExtendIndex extends by new sessions,
// is each image's relevance column, a run in its page of images' entry array,
// which the training points are views into. The solver's Gram
// matrix is the same walk with each row point as the weight vector, through
// its training problem's points inverted by session (Cache), which gives
// Sparse.Dot's bits for every pair: the same products, each rounded on its
// own, in the same ascending-session order, from +0. The shapes the index
// does not take go pair by pair through Eval, the same merge join.
//
// On amd64 both sets are held to the same contract: bit-identical float64
// results to the straight-line reference loop kept with the parity tests,
// on every input, including NaN/Inf propagation — not a ULP tolerance. The
// four-accumulator summation pattern (lane l sums elements with index ≡ l
// mod 4, tail into lane 0, combined as ((s0+s1)+s2)+s3) is part of the
// contract, so wider unrolls and the assembly must preserve each
// accumulator's addend sequence; so is expOne, the scalar Cephes
// exponential: the assembly performs its operations in its order, one
// correctly rounded instruction each and no fused multiply-add, and hands
// any quad holding a NaN or an argument outside [-700, 700] back to it.
// The golden MAPs and the solver-trajectory pins are amd64 values: there
// the compiler fuses nothing (at any GOAMD64 level the pinned lanes hold no
// FMA), so the assembly, the Go routines and the reference agree to the bit
// on every CPU, with or without FMA (CI runs the pinned packages under
// GODEBUG=cpu.fma=off too). On other architectures only the Go routines
// exist and the Go specification lets the compiler fuse x*y + z — arm64
// does, in linalg's statistics and random numbers, which build the
// synthetic collections — so results there repeat from run to run but are
// not pinned. The tile's Go routines, the exponential (expOne, expLanes,
// RBF.Eval and RBF.EvalSet), the log half (the weight build and the walk,
// which the Gram fill shares, sparse.Vector.Dot), RBF.EvalBatch and the
// trainer (package svm, core's label correction) write each product as
// float64(x*y), which the specification forbids fusing, so over the same
// norms they give amd64's bits, and CI checks the arm64 build's code for
// fused multiply-adds there.
//
// # Quantized sets
//
// QuantizedSet is an int8 shadow copy of a dense collection (symmetric
// per-dimension quantization, code = round(v/scale_d) clamped to ±127,
// scale_d = maxabs_d/127). ApproxSquaredDistances scans it with cached row
// norms and the per-dimension scales folded into the query. Nothing serves
// from it: the int8 scan measured 0.38–0.80× the exact scan at every
// collection size and its serving lane was deleted (ROADMAP, "One ranking
// pipeline"). The type and core.Euclidean.RankTopQuantized remain only as
// the benchmark's kernel.quant_build_ms and core.quant_scan_us probes and go
// when those do. Scan determinism: repeated scans of the same set return
// bit-identical values, but the norm-decomposed arithmetic is NOT the
// textbook subtract-square sum — values can differ from it in the last
// ulps and can go slightly negative for near-identical vectors.
package kernel
