package retrieval_test

// The definition TestEngineMatchesModel holds the engine to. A collection is
// a slice of rows, the log a slice of committed sessions, a ranking is the
// scheme's scores over both, fully sorted; a mutation appends or refuses.
// There is no epoch, shard, column cache, journal or sessions table here, so
// whatever those do in the engine has to come out as if they did not exist.

import (
	"cmp"
	"errors"
	"math"
	"sort"

	"lrfcsvm/internal/core"
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/linalg"
	"lrfcsvm/internal/retrieval"
)

// wrong[c] is how a request ends that is wrong when c holds — out of range,
// ragged, not finite, empty, committed twice — and nil when it does not.
var wrong = map[bool]error{true: errors.New("model: wrong request")}

// world is what an operation meets outside the collection and the log; each
// field is nil or the error it refuses with (retrieval.ErrEngineClosed,
// context.Canceled, retrieval.ErrJournal). Errors compare by errors.Is.
type world struct{ closed, cancelled, journal error }

type model struct {
	rows     []linalg.Vector
	sessions []feedbacklog.Session // committed, in commit order
}

type modelSession struct {
	query     int
	judgments map[int]feedbacklog.Judgment
	committed bool
}

var definitions = map[retrieval.SchemeKind]core.Scheme{
	retrieval.SchemeEuclidean: core.Euclidean{}, retrieval.SchemeRFSVM: core.RFSVM{},
	retrieval.SchemeLRF2SVMs: core.LRF2SVMs{}, retrieval.SchemeLRFCSVM: core.LRFCSVM{},
}

func (m *model) inRange(image int) bool { return image >= 0 && image < len(m.rows) }

// addImages appends the rows. A wrong batch is refused first; then a mutation
// asks the engine, its context and the journal, in that order.
func (m *model) addImages(w world, rows []linalg.Vector) (first int, err error) {
	bad := len(rows) == 0
	for _, r := range rows {
		norm := r.Dot(r)
		bad = bad || len(r) != len(m.rows[0]) || math.IsNaN(norm) || math.IsInf(norm, 0)
	}
	if err := cmp.Or(wrong[bad], w.closed, w.cancelled, w.journal); err != nil {
		return 0, err
	}
	for _, r := range rows {
		m.rows = append(m.rows, append(linalg.Vector(nil), r...))
	}
	return len(m.rows) - len(rows), nil
}

func (m *model) startSession(query int) (*modelSession, error) {
	return &modelSession{query: query, judgments: map[int]feedbacklog.Judgment{}}, wrong[!m.inRange(query)]
}

func (m *model) judge(s *modelSession, image int, j feedbacklog.Judgment) error {
	err := wrong[!m.inRange(image) || s.committed]
	if err == nil {
		s.judgments[image] = j
	}
	return err
}

func (m *model) commit(w world, s *modelSession) error {
	err := cmp.Or(wrong[s.committed || len(s.judgments) == 0], w.closed, w.cancelled, w.journal)
	if err == nil {
		m.sessions, s.committed = append(m.sessions, feedbacklog.Session{QueryImage: s.query, Judgments: s.judgments}), true
	}
	return err
}

// log is the sessions as the log the schemes read their r_i columns from.
func (m *model) log() *feedbacklog.Log {
	log := feedbacklog.NewLog(len(m.rows))
	for _, s := range m.sessions {
		if _, err := log.AddSession(s); err != nil {
			panic(err) // commit admitted only judgments inside the collection
		}
	}
	return log
}

// rank is the top k for the session's query under a scheme; an initial query
// is the Euclidean ranking of a session nobody judged. A query asks its
// context before the engine.
func (m *model) rank(w world, kind retrieval.SchemeKind, s *modelSession, k int) ([]retrieval.Result, error) {
	scheme, known := definitions[kind]
	bad := !m.inRange(s.query) || !known || len(s.judgments) == 0 && kind != retrieval.SchemeEuclidean
	if err := cmp.Or(wrong[bad], w.cancelled, w.closed); err != nil {
		return nil, err
	}
	labeled := make([]core.LabeledExample, 0, len(s.judgments))
	for image, j := range s.judgments {
		labeled = append(labeled, core.LabeledExample{Index: image, Label: float64(j)})
	}
	sort.Slice(labeled, func(a, b int) bool { return labeled[a].Index < labeled[b].Index })
	scores, err := scheme.Rank(&core.QueryContext{Visual: m.rows, LogVectors: m.log().RelevanceVectors(), Query: s.query, Labeled: labeled, Workers: 1})
	if err != nil {
		panic(err) // everything Rank validates was validated above or on the way in
	}
	all := make([]retrieval.Result, len(scores))
	for i, score := range scores {
		all[i] = retrieval.Result{Image: i, Score: score}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Score > all[b].Score })
	return all[:min(k, len(all))], nil
}
