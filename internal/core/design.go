package core

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/dse"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// Chiplet is one die of a chipletized design configuration; the physical
// realization machinery lives in internal/fidelity so the staged DSE path can
// share it (DESIGN.md §10).
type Chiplet = fidelity.Chiplet

// ModelPPA is one algorithm's full evaluation on a chipletized design.
type ModelPPA struct {
	Algorithm string
	// Compute is the logic-only analytical PPA (Step #TR2).
	Compute metrics.PPA
	// Total adds NoC/NoP transfer latency and energy (Step #TR3).
	Total metrics.PPA
	// Interconnect breakdown.
	NoCLatencyS, NoPLatencyS float64
	NoCEnergyPJ, NoPEnergyPJ float64
	// Composable metrics.
	Coverage    float64
	Utilization float64
	// PeakTempC is the hottest chiplet's steady-state junction temperature
	// while running this algorithm (compact thermal model; Options.Thermal).
	PeakTempC float64
}

// DesignPoint is a complete chipletized design configuration: the output of
// Steps #TR2+#TR3 (or #TT3+#TT4) for one configuration.
type DesignPoint struct {
	Name   string
	Config hw.Config
	DSE    dse.Result
	// Package is the physical realization the design was built from: the
	// universal graph (Figure 3a), its chiplet communities, the chiplets
	// after the area-driven split (Figure 3b) and their 2.5-D floorplan.
	*fidelity.Package
	PerModel map[string]*ModelPPA

	// NREUSD is the absolute NRE; NRE is normalized to the generic
	// configuration (filled by the training/test drivers).
	NREUSD float64
	NRE    float64
}

// ChipletUnitSets returns, per chiplet, the unit kinds of its banks — the
// input of the utilization metric.
func (d *DesignPoint) ChipletUnitSets() [][]hw.Unit {
	out := make([][]hw.Unit, len(d.Chiplets))
	for i, c := range d.Chiplets {
		out[i] = c.Units()
	}
	return out
}

// FidelityParams projects the options onto the physical-fidelity layer's
// parameter set; the same projection feeds staged selection (explore.go).
func (o Options) FidelityParams() fidelity.Params {
	return fidelity.Params{
		NoC:               o.NoC,
		NoP:               o.NoP,
		MaxChipletAreaMM2: o.MaxChipletAreaMM2,
		Cluster:           o.Cluster,
		Thermal:           o.Thermal,
		JunctionLimitC:    o.JunctionLimitC,
		Catalogue:         o.Catalogue,
	}
}

// evalOnDesign produces the full ModelPPA of one algorithm on a chipletized
// design: the fidelity layer's physical re-scoring (per-hosting-chiplet NoC
// hops, placement-aware NoP hops, compact-thermal peak temperature) plus the
// composability metrics that need the configuration and model.
func (o Options) evalOnDesign(d *DesignPoint, e *ppa.Eval) *ModelPPA {
	r := o.FidelityParams().Eval(d.Package, e)

	mp := &ModelPPA{
		Algorithm:   e.Model.Name,
		NoCLatencyS: r.NoCLatencyS,
		NoPLatencyS: r.NoPLatencyS,
		NoCEnergyPJ: r.NoCEnergyPJ,
		NoPEnergyPJ: r.NoPEnergyPJ,
		PeakTempC:   r.PeakTempC,
	}
	area := d.Package.AreaMM2()
	mp.Compute = metrics.PPA{
		LatencyS:     e.LatencyS,
		EnergyPJ:     e.EnergyPJ(),
		AreaMM2:      e.AreaMM2,
		PowerDensity: e.PowerDensity(),
	}
	mp.Total = metrics.PPA{
		LatencyS: r.LatencyS,
		EnergyPJ: r.EnergyPJ,
		AreaMM2:  area,
	}
	if r.LatencyS > 0 && area > 0 {
		mp.Total.PowerDensity = r.EnergyPJ * 1e-12 / r.LatencyS / area
	}
	mp.Coverage = d.Config.Coverage(e.Model)
	mp.Utilization = metrics.Utilization(d.ChipletUnitSets(), hw.UnitsFor(e.Model))
	return mp
}

// BuildDesign turns a DSE result into a chipletized design point: build the
// universal graph of its evaluations, cluster it into chiplets (Step #TR3 /
// #TT4), evaluate every served model with interconnect overheads, and price
// the NRE.
func (o Options) BuildDesign(name string, r dse.Result) (*DesignPoint, error) {
	if len(r.Evals) == 0 {
		return nil, fmt.Errorf("core: design %q has no evaluations", name)
	}
	pkg, err := o.FidelityParams().Build(name, r.Evals)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d := &DesignPoint{
		Name:     name,
		Config:   r.Config,
		DSE:      r,
		Package:  pkg,
		PerModel: make(map[string]*ModelPPA, len(r.Evals)),
	}
	for _, e := range r.Evals {
		d.PerModel[e.Model.Name] = o.evalOnDesign(d, e)
	}

	types := make(map[string]cost.Chiplet)
	for _, c := range d.Chiplets {
		types[c.Signature()] = cost.Chiplet{AreaMM2: c.AreaMM2, UnitKinds: len(c.Banks)}
	}
	cc := cost.Config{Instances: len(d.Chiplets)}
	sigs := make([]string, 0, len(types))
	for s := range types {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		cc.Types = append(cc.Types, types[s])
	}
	d.NREUSD = o.Cost.ConfigNREUSD(cc)
	return d, nil
}

// EvalModel evaluates an additional algorithm (e.g. a test algorithm) on an
// existing design point; the design must cover the model. The evaluation
// goes through the options' engine, so repeated assignments hit cache.
func (o Options) EvalModel(d *DesignPoint, m *workload.Model) (*ModelPPA, error) {
	e, err := o.Engine().Evaluate(m, d.Config)
	if err != nil {
		return nil, err
	}
	return o.evalOnDesign(d, e), nil
}
