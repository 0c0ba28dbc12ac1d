package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/linalg"
)

// storeHoldsRows reports how set differs from kernel.NewShardedSet over
// rows: its layout, its stored values and its squared norms, bit for bit.
func storeHoldsRows(set *kernel.ShardedSet, rows []linalg.Vector) error {
	want := kernel.NewShardedSet(rows, 0)
	if set.Len() != want.Len() || set.Dim() != want.Dim() || set.NumShards() != want.NumShards() || set.ShardSize() != want.ShardSize() {
		return fmt.Errorf("store of %d×%d in %d shards of %d, want %d×%d in %d of %d",
			set.Len(), set.Dim(), set.NumShards(), set.ShardSize(), want.Len(), want.Dim(), want.NumShards(), want.ShardSize())
	}
	for si := range want.NumShards() {
		if set.Shard(si).Len() != want.Shard(si).Len() {
			return fmt.Errorf("shard %d holds %d rows, want %d", si, set.Shard(si).Len(), want.Shard(si).Len())
		}
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want.Len() {
		if !slices.EqualFunc(set.Point(i), want.Point(i), sameBits) {
			return fmt.Errorf("row %d is %v, want %v", i, set.Point(i), want.Point(i))
		}
		if !sameBits(set.SquaredNorm(i), want.SquaredNorm(i)) {
			return fmt.Errorf("row %d has squared norm %v, want %v", i, set.SquaredNorm(i), want.SquaredNorm(i))
		}
	}
	return nil
}

// randomRows draws n descriptors of dimension dim.
func randomRows(n, dim int, seed uint64) []linalg.Vector {
	rng := linalg.NewRNG(seed)
	rows := make([]linalg.Vector, n)
	for i := range rows {
		rows[i] = make(linalg.Vector, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Normal(0, 1)
		}
	}
	return rows
}

// saveCollection writes rows as a feature store and as a snapshot with an
// empty log in dir, and returns the two paths.
func saveCollection(t testing.TB, dir string, rows []linalg.Vector) (features, snapshot string) {
	t.Helper()
	features, snapshot = filepath.Join(dir, "features.bin"), filepath.Join(dir, "engine.snap")
	if err := SaveFeatures(features, rows, make([]int, len(rows))); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotSetAt(snapshot, kernel.NewShardedSet(rows, 0), feedbacklog.NewLog(len(rows)), 7); err != nil {
		t.Fatal(err)
	}
	return features, snapshot
}

// TestLoadedStoreMatchesNewShardedSet holds both store loaders to
// kernel.NewShardedSet over the rows saved (and, for the feature store, the
// rows ReadFeatures decodes): the same shards, values and norms, bit for
// bit — at shard boundaries, around them and with the values whose bits an
// arithmetic slip would change.
func TestLoadedStoreMatchesNewShardedSet(t *testing.T) {
	shard := kernel.DefaultShardSize
	for _, n := range []int{1, 5, shard - 1, shard, shard + 1, 2*shard + 300} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rows := randomRows(n, 7, uint64(n))
			rows[0][0], rows[0][1], rows[n-1][6] = math.Copysign(0, -1), 5e-324, -1e150
			features, snapshot := saveCollection(t, t.TempDir(), rows)

			set, err := LoadFeatureSet(features)
			if err != nil {
				t.Fatal(err)
			}
			read, _, err := LoadFeatures(features)
			if err != nil {
				t.Fatal(err)
			}
			if err := storeHoldsRows(set, read); err != nil {
				t.Errorf("features: %v", err)
			}
			if err := storeHoldsRows(set, rows); err != nil {
				t.Errorf("features against the saved rows: %v", err)
			}

			set, log, seq, err := LoadSnapshotSetAt(snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if err := storeHoldsRows(set, rows); err != nil {
				t.Errorf("snapshot: %v", err)
			}
			if seq != 7 || log.NumImages() != n || log.NumSessions() != 0 {
				t.Errorf("snapshot: sequence %d and a log of %d sessions over %d images, want 7, 0 and %d", seq, log.NumSessions(), log.NumImages(), n)
			}
		})
	}
}

// TestLoadAllocations holds a load to one block per shard and nothing per
// image: loading four times the images allocates at most one more object per
// extra shard, and the bytes allocated stay within a tenth of the store (rows
// and squared norms) plus a constant, for the feature store and the
// snapshot alike; a journal replayed into the loaded store costs objects by
// the group, not by the image. GC is off while a load is measured.
func TestLoadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	const dim = 36
	shard := kernel.DefaultShardSize
	type load struct {
		mallocs, bytes uint64
	}
	// The fewest objects and bytes of three loads: MemStats counts every
	// goroutine's allocations, the test framework's too.
	measure := func(t *testing.T, read func() (*kernel.ShardedSet, error)) load {
		least := load{math.MaxUint64, math.MaxUint64}
		for range 3 {
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			set, err := read()
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(set)
			least.mallocs = min(least.mallocs, after.Mallocs-before.Mallocs)
			least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := 2*shard, 8*shard
	paths := map[int][2]string{}
	for _, n := range []int{small, large} {
		features, snapshot := saveCollection(t, t.TempDir(), randomRows(n, dim, 3))
		paths[n] = [2]string{features, snapshot}
	}
	for k, kind := range []string{"features", "snapshot"} {
		t.Run(kind, func(t *testing.T) {
			read := func(n int) func() (*kernel.ShardedSet, error) {
				if k == 0 {
					return func() (*kernel.ShardedSet, error) { return LoadFeatureSet(paths[n][0]) }
				}
				return func() (*kernel.ShardedSet, error) {
					set, _, _, err := LoadSnapshotSetAt(paths[n][1])
					return set, err
				}
			}
			a, b := measure(t, read(small)), measure(t, read(large))
			store := uint64(large * (dim + 1) * 8)
			t.Logf("%d images: %d objects, %d bytes; %d images: %d objects, %d bytes (the store %d)",
				small, a.mallocs, a.bytes, large, b.mallocs, b.bytes, store)
			if extra := uint64((large - small) / shard); b.mallocs > a.mallocs+extra {
				t.Errorf("%d extra shards cost %d objects, want at most one each", extra, b.mallocs-a.mallocs)
			}
			if b.bytes > store+store/10+64<<10 {
				t.Errorf("a load of %d images allocates %d bytes, want at most 1.1 × the store's %d + 64 KiB", large, b.bytes, store)
			}
		})
	}
	// Four times the images in each group, over four times the collection:
	// the tail shard's rows and norms may move once more a group.
	t.Run("journal", func(t *testing.T) {
		const groups = 8
		replay := func(n, perGroup int) func() (*kernel.ShardedSet, error) {
			base, err := LoadFeatureSet(paths[n][0])
			if err != nil {
				t.Fatal(err)
			}
			path := journalOfGroups(t, t.TempDir(), base, groups, perGroup)
			return func() (*kernel.ShardedSet, error) {
				j, set, _, err := OpenJournalOver(path, base, feedbacklog.NewLog(n), JournalOptions{Fsync: FsyncOff})
				if err == nil {
					err = j.Close()
				}
				return set, err
			}
		}
		a, b := measure(t, replay(small, 16)), measure(t, replay(large, 64))
		t.Logf("%d groups of 16 images over %d: %d objects; of 64 over %d: %d objects", groups, small, a.mallocs, large, b.mallocs)
		if b.mallocs > a.mallocs+2*groups {
			t.Errorf("%d groups of 64 images cost %d objects, of 16 images %d: want at most two more a group", groups, b.mallocs, a.mallocs)
		}
	})
}

// journalOfGroups writes a journal over set holding groups image batches of
// perGroup images each, and returns its path.
func journalOfGroups(t testing.TB, dir string, set *kernel.ShardedSet, groups, perGroup int) string {
	t.Helper()
	path := filepath.Join(dir, "engine.wal")
	j, _, _, err := OpenJournalOver(path, set, feedbacklog.NewLog(set.Len()), JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for g := range groups {
		if err := j.AppendImages(randomRows(perGroup, set.Dim(), uint64(g))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// pinnedCollection is a fixed collection whose encodings are pinned: 300
// descriptors of dimension 5 (two with a negative zero, a subnormal and the
// largest finite value), labels from -2 to 2 and a log of three sessions.
func pinnedCollection(t testing.TB) ([]linalg.Vector, []int, *feedbacklog.Log) {
	t.Helper()
	const n, dim = 300, 5
	rows := make([]linalg.Vector, n)
	labels := make([]int, n)
	for i := range rows {
		rows[i] = make(linalg.Vector, dim)
		for j := range rows[i] {
			rows[i][j] = float64(i*7+j*3)/8 - 3
		}
		labels[i] = i%5 - 2
	}
	rows[1][0], rows[2][1], rows[3][2] = math.Copysign(0, -1), 5e-324, math.MaxFloat64
	log := feedbacklog.NewLog(n)
	for q, judged := range []map[int]feedbacklog.Judgment{
		{0: feedbacklog.Relevant, 299: feedbacklog.Irrelevant},
		{17: feedbacklog.Relevant, 3: feedbacklog.Relevant, 150: feedbacklog.Irrelevant},
		{42: feedbacklog.Irrelevant},
	} {
		if _, err := log.AddSession(feedbacklog.Session{QueryImage: q * 100, TargetCategory: q - 1, Judgments: judged}); err != nil {
			t.Fatal(err)
		}
	}
	return rows, labels, log
}

// TestWritersEncodeAsPinned pins the bytes the writers produce for a fixed
// collection: the encoding of every file kind is a format, so a writer may
// change how it builds a record but not one byte of what it writes.
func TestWritersEncodeAsPinned(t *testing.T) {
	rows, labels, log := pinnedCollection(t)
	set := kernel.NewShardedSet(rows, 0)
	for _, c := range []struct {
		what  string
		write func(io.Writer) error
		size  int
		sum   string
	}{
		{"features", func(w io.Writer) error { return WriteFeatures(w, rows, labels) }, 16808, "9e45ef82a983c29d71cfab7a31f7ad813f3a00e6f63599f04aac89809a9647f1"},
		{"log", func(w io.Writer) error { return WriteLog(w, log) }, 128, "63e35f8d394528e01f4a53236499191647264a21ecd06e8f9cb6cf273a41f80d"},
		{"snapshot", func(w io.Writer) error { return WriteSnapshotAt(w, set, log, 0) }, 14536, "07c44d53d70d91d8b06d3f3464fe2792e790d54c39f1fcd865433277831eab61"},
		{"snapshot at sequence 42", func(w io.Writer) error { return WriteSnapshotAt(w, set, log, 42) }, 14544, "ca33dc996da1678194818327cd3155e143f87dc94a6c9dd7fc97d092a942d204"},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != c.size || sum != c.sum {
			t.Errorf("%s: %d bytes with SHA-256 %s, want %d bytes with %s", c.what, buf.Len(), sum, c.size, c.sum)
		}
	}
}

// TestWriterAllocationsDoNotGrow: the writers encode every record into one
// reused buffer, so writing four times the rows and the sessions allocates
// no more objects. The log holds a session per ten images, each judging
// twenty of them; a session encoded on its own allocated twice.
func TestWriterAllocationsDoNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	for _, c := range []struct {
		what  string
		write func(rows []linalg.Vector, set *kernel.ShardedSet, labels []int, log *feedbacklog.Log) error
	}{
		{"WriteFeatures", func(rows []linalg.Vector, _ *kernel.ShardedSet, labels []int, _ *feedbacklog.Log) error {
			return WriteFeatures(io.Discard, rows, labels)
		}},
		{"WriteSnapshotAt", func(_ []linalg.Vector, set *kernel.ShardedSet, _ []int, log *feedbacklog.Log) error {
			return WriteSnapshotAt(io.Discard, set, log, 3)
		}},
		{"WriteLog", func(_ []linalg.Vector, _ *kernel.ShardedSet, _ []int, log *feedbacklog.Log) error {
			return WriteLog(io.Discard, log)
		}},
	} {
		allocs := func(n int) float64 {
			rows, labels, log := randomRows(n, 36, 4), make([]int, n), feedbacklog.NewLog(n)
			rng := linalg.NewRNG(5)
			for range n / 10 {
				judged := map[int]feedbacklog.Judgment{}
				for len(judged) < 20 {
					judged[rng.Intn(n)] = feedbacklog.Judgment(1 - 2*rng.Intn(2))
				}
				if _, err := log.AddSession(feedbacklog.Session{QueryImage: rng.Intn(n), Judgments: judged}); err != nil {
					t.Fatal(err)
				}
			}
			set := kernel.NewShardedSet(rows, 0)
			return testing.AllocsPerRun(5, func() {
				if err := c.write(rows, set, labels, log); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(500), allocs(2000); b > a {
			t.Errorf("%s allocates %.0f objects for 500 rows and 50 sessions and %.0f for 2,000 and 200", c.what, a, b)
		}
	}
}

// TestAppendSessionAllocatesOnce: the journal builds a session's record in
// one allocation — header reserved, kind byte and encoding appended, header
// filled in place — and writes it without another; encoded on its own, then
// framed, a session allocated three times.
func TestAppendSessionAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the program")
	}
	j, _, _, err := OpenJournalOver(filepath.Join(t.TempDir(), "j.wal"), kernel.NewShardedSet(randomRows(100, 3, 1), 0), feedbacklog.NewLog(100), JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	s := journalSession(0, 100)
	for i := range 20 {
		s.Judgments[3*i] = feedbacklog.Relevant
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := j.AppendSession(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("AppendSession allocates %.0f objects, want 1", allocs)
	}
}

// BenchmarkLoadCollection times a load straight into the sharded store, of
// the feature store and of the snapshot, at 5,000 and 50,000 images of the
// benchmark's 36-dimensional descriptors, and the replay of a journal of 40
// image batches of 8 over the loaded feature store, as cbirserver starts.
// With -benchmem, allocs/op must not scale with the images: one block per
// shard, and the journal's objects per batch. The log cases load a log store
// of sessions of 20 judgments (LoadLog) as cbirserver's -log does: 1,500
// over 500 images, the feedback-small workload's, and 2,000 over 20,000,
// ingest-commit's start.
func BenchmarkLoadCollection(b *testing.B) {
	for _, c := range []struct{ images, sessions int }{{500, 1500}, {20000, 2000}} {
		rng := linalg.NewRNG(uint64(c.images))
		log := feedbacklog.NewLog(c.images)
		for range c.sessions {
			judged := make(map[int]feedbacklog.Judgment, 20)
			for len(judged) < 20 {
				judged[rng.Intn(c.images)] = feedbacklog.Judgment(2*rng.Intn(2) - 1)
			}
			if _, err := log.AddSession(feedbacklog.Session{QueryImage: rng.Intn(c.images), Judgments: judged}); err != nil {
				b.Fatal(err)
			}
		}
		path := filepath.Join(b.TempDir(), "log.bin")
		if err := SaveLog(path, log); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("log/%d/%d", c.images, c.sessions), func(b *testing.B) {
			for range b.N {
				if _, err := LoadLog(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{5000, 50000} {
		features, snapshot := saveCollection(b, b.TempDir(), randomRows(n, 36, 1))
		b.Run(fmt.Sprintf("features/%d", n), func(b *testing.B) {
			for range b.N {
				if _, err := LoadFeatureSet(features); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("snapshot/%d", n), func(b *testing.B) {
			for range b.N {
				if _, _, _, err := LoadSnapshotSetAt(snapshot); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("journal/%d", n), func(b *testing.B) {
			base, err := LoadFeatureSet(features)
			if err != nil {
				b.Fatal(err)
			}
			path := journalOfGroups(b, b.TempDir(), base, 40, 8)
			b.ResetTimer()
			for range b.N {
				j, _, _, err := OpenJournalOver(path, base, feedbacklog.NewLog(n), JournalOptions{Fsync: FsyncOff})
				if err != nil {
					b.Fatal(err)
				}
				j.Close()
			}
		})
	}
}
