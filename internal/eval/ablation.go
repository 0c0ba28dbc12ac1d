package eval

import (
	"fmt"

	"lrfcsvm/internal/core"
)

// Named gives a scheme another display name, so the variants of a sweep are
// distinguishable in a results table.
type Named struct {
	core.Scheme
	Label string
}

// Name implements core.Scheme.
func (n Named) Name() string { return n.Label }

// Ablation is one sweep around a choice the paper leaves open. Every scheme
// variant is the zero CSVMParams — the main table's LRF-CSVM — with the one
// field its sweep varies, and a sweep over the log holds the profile's own
// setting, so each sweep contains the main table's row.
type Ablation struct {
	Name    string
	Schemes func(exp *Experiment) []core.Scheme // the variants run on each prepared experiment
	Configs func(base Config) []Variant         // a sweep over the simulated log; nil is the profile alone
}

// Variant is one labeled experiment configuration of a sweep.
type Variant struct {
	Label  string
	Config Config
}

// Ablations is the one declaration of the sweeps: `lrfbench -ablation` (help
// text, validation and run), the root BenchmarkAblation and
// examples/evaluation iterate it.
var Ablations = []Ablation{
	// Section 6.5's unlabeled-selection strategies: the log-assisted default,
	// Fig. 1's score-driven max/min, boundary-based active selection and
	// random drafting.
	{Name: "selection", Schemes: csvmSweep("selection",
		[]core.SelectionStrategy{core.SelectLogAssisted, core.SelectMaxMin, core.SelectBoundary, core.SelectRandom},
		func(p *core.CSVMParams, s core.SelectionStrategy) { p.Selection = s })},
	// The final weight ceiling rho of the annealing schedule (Eq. 1).
	{Name: "rho", Schemes: csvmSweep("rho", []float64{0.1, 0.25, 0.5, 1, 2}, func(p *core.CSVMParams, rho float64) { p.Coupled.Rho = rho })},
	// The label-correction threshold Delta of Fig. 1.
	{Name: "delta", Schemes: csvmSweep("delta", []float64{0.25, 0.5, 1, 2, 4}, func(p *core.CSVMParams, delta float64) { p.Coupled.Delta = delta })},
	// N', the number of drafted transductive points.
	{Name: "unlabeled", Schemes: csvmSweep("N'", []int{8, 16, 32, 64}, func(p *core.CSVMParams, nu int) { p.NumUnlabeled = nu })},
	// The default linear co-judgment log kernel against the paper's RBF.
	{Name: "logkernel", Schemes: func(exp *Experiment) []core.Scheme {
		rbf := core.LogRBFKernel(exp.logIndex, len(exp.Visual))
		return []core.Scheme{
			Named{core.LRF2SVMs{}, "LRF-2SVMs log=linear"},
			Named{core.LRF2SVMs{LogKernel: rbf}, "LRF-2SVMs log=rbf"},
			Named{core.LRFCSVM{}, "LRF-CSVM log=linear"},
			Named{core.LRFCSVM{Params: core.CSVMParams{LogKernel: rbf}}, "LRF-CSVM log=rbf"},
		}
	}},
	// The size of the log, a quarter of the profile's sessions to twice them.
	{Name: "logsessions", Schemes: defaultCSVM, Configs: func(base Config) (out []Variant) {
		for _, quarters := range []int{1, 2, 4, 8} {
			cfg := base
			cfg.Log.Sessions = base.Log.Sessions * quarters / 4
			out = append(out, Variant{fmt.Sprintf("sessions=%d", cfg.Log.Sessions), cfg})
		}
		return out
	}},
	// The judgment-noise rate of the simulated log.
	{Name: "lognoise", Schemes: defaultCSVM, Configs: func(base Config) (out []Variant) {
		for _, noise := range []float64{0, 0.05, 0.1, 0.2} {
			cfg := base
			cfg.Log.NoiseRate = noise
			out = append(out, Variant{fmt.Sprintf("noise=%g", noise), cfg})
		}
		return out
	}},
}

// csvmSweep is the scheme list of a sweep over one field of CSVMParams.
func csvmSweep[T any](field string, values []T, set func(*core.CSVMParams, T)) func(*Experiment) []core.Scheme {
	return func(*Experiment) []core.Scheme {
		var schemes []core.Scheme
		for _, v := range values {
			var p core.CSVMParams
			set(&p, v)
			schemes = append(schemes, Named{core.LRFCSVM{Params: p}, fmt.Sprintf("LRF-CSVM %s=%v", field, v)})
		}
		return schemes
	}
}

// defaultCSVM is the scheme list of a sweep over the log.
func defaultCSVM(*Experiment) []core.Scheme { return []core.Scheme{core.LRFCSVM{}} }

// AblationNames lists the sweeps in declaration order.
func AblationNames() []string {
	names := make([]string, len(Ablations))
	for i, a := range Ablations {
		names[i] = a.Name
	}
	return names
}

// Variants returns the experiment configurations the sweep runs on: its own
// over the log, or the profile alone under an empty label.
func (a Ablation) Variants(base Config) []Variant {
	if a.Configs == nil {
		return []Variant{{Config: base}}
	}
	return a.Configs(base)
}

// RunAblation evaluates the sweep's variants on the experiment (prepared from
// the sweep's Variant of that label) next to the two reference schemes,
// RF-SVM and LRF-2SVMs.
func (e *Experiment) RunAblation(a Ablation, label string) (*Table, error) {
	name := "Ablation: " + a.Name
	if label != "" {
		name += " (" + label + ")"
	}
	return e.Run(name, append([]core.Scheme{core.RFSVM{}, core.LRF2SVMs{}}, a.Schemes(e)...))
}
