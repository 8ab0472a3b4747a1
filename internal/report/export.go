package report

// Machine-readable exports: CSV series for every table/figure, suitable for
// external plotting, and a JSON summary of a full run. Encoding uses only
// the standard library (encoding/csv, encoding/json).

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/workload"
)

// writeCSV writes a header and rows, propagating the first error.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// TableICSV writes the training-set inventory.
func TableICSV(w io.Writer, models []*workload.Model) error {
	rows := make([][]string, 0, len(models))
	for _, m := range models {
		rows = append(rows, []string{
			m.Name, string(m.Class), strconv.FormatInt(m.Params(), 10),
			strconv.FormatInt(m.MACs(), 10), strconv.Itoa(m.LayerCount()), m.Source,
		})
	}
	return writeCSV(w, []string{"algorithm", "class", "params", "macs", "layers", "source"}, rows)
}

// TableIVCSV writes the training-phase NRE comparison.
func TableIVCSV(w io.Writer, tr *core.TrainResult) error {
	var rows [][]string
	for _, s := range tr.Subsets {
		cum, lib, ben := s.NREBenefit(tr.Customs)
		rows = append(rows, []string{
			s.Name, strconv.Itoa(len(s.Members)), f(cum), f(lib), f(ben),
		})
	}
	return writeCSV(w, []string{"config", "members", "nre_custom_sum", "nre_library", "benefit"}, rows)
}

// TableVCSV writes the test-phase utilization comparison.
func TableVCSV(w io.Writer, tr *core.TrainResult, tt *core.TestResult) error {
	var rows [][]string
	for _, a := range tt.Assignments {
		if a.SubsetIndex < 0 || a.OnGeneric == nil || a.OnLibrary == nil {
			continue
		}
		rows = append(rows, []string{
			a.Algorithm, f(a.OnGeneric.Utilization),
			tr.Subsets[a.SubsetIndex].Name, f(a.OnLibrary.Utilization),
			f(a.OnLibrary.Utilization / a.OnGeneric.Utilization),
		})
	}
	return writeCSV(w, []string{"algorithm", "u_generic", "config", "u_library", "improvement"}, rows)
}

// TableVICSV writes the test-phase NRE comparison.
func TableVICSV(w io.Writer, tr *core.TrainResult, tt *core.TestResult) error {
	var rows [][]string
	for k := range tr.Subsets {
		cum, lib, ben := tt.SubsetNREBenefit(tr, k)
		if cum == 0 {
			continue
		}
		rows = append(rows, []string{tr.Subsets[k].Name, f(cum), f(lib), f(ben)})
	}
	return writeCSV(w, []string{"config", "nre_custom_sum", "nre_library", "benefit"}, rows)
}

// Figure2CSV writes the edge-combination histogram.
func Figure2CSV(w io.Writer, models []*workload.Model, topN int) error {
	var rows [][]string
	for _, d := range Figure2Data(models, topN) {
		rows = append(rows, []string{d.Pair.String(), strconv.Itoa(d.Count)})
	}
	return writeCSV(w, []string{"edge", "occurrences"}, rows)
}

// Figure4CSV writes the PPA comparison series.
func Figure4CSV(w io.Writer, tr *core.TrainResult, tt *core.TestResult) error {
	var rows [][]string
	for _, r := range Figure4Data(tr, tt) {
		rows = append(rows, []string{
			r.Algorithm,
			f(r.Generic.AreaMM2), f(r.Custom.AreaMM2), f(r.Library.AreaMM2),
			f(r.Generic.LatencyS), f(r.Custom.LatencyS), f(r.Library.LatencyS),
			f(r.Generic.EnergyPJ), f(r.Custom.EnergyPJ), f(r.Library.EnergyPJ),
		})
	}
	return writeCSV(w, []string{
		"algorithm",
		"area_generic_mm2", "area_custom_mm2", "area_library_mm2",
		"latency_generic_s", "latency_custom_s", "latency_library_s",
		"energy_generic_pj", "energy_custom_pj", "energy_library_pj",
	}, rows)
}

// Summary is the JSON-serializable digest of a full run.
type Summary struct {
	ElapsedSeconds float64         `json:"elapsed_seconds"`
	DSEPoints      int             `json:"dse_points"`
	DSESpace       string          `json:"dse_space,omitempty"`
	Generic        ConfigSummary   `json:"generic"`
	Subsets        []SubsetSummary `json:"subsets"`
	TestAlgorithms []TestSummary   `json:"test_algorithms"`
}

// ConfigSummary digests one design configuration.
type ConfigSummary struct {
	Name         string  `json:"name"`
	Point        string  `json:"dse_point"`
	Chiplets     int     `json:"chiplets"`
	PackageMM2   float64 `json:"package_mm2"`
	NRE          float64 `json:"nre_normalized"`
	ChipletTypes int     `json:"chiplet_types"`
	// Refined is present for staged multi-fidelity runs: the stage-1 work
	// counters and the winner's refined scores selection actually compared.
	Refined *RefinedSummary `json:"staged_refinement,omitempty"`
}

// RefinedSummary digests one staged refinement (dse.RefineStats).
type RefinedSummary struct {
	Candidates      int                `json:"refined_candidates"`
	ThermalRejected int                `json:"thermal_rejected"`
	PeakTempC       float64            `json:"winner_peak_temp_c"`
	LatencyS        map[string]float64 `json:"winner_latency_s,omitempty"`
}

// SubsetSummary digests one training subset.
type SubsetSummary struct {
	Config  ConfigSummary `json:"config"`
	Members []string      `json:"members"`
	Benefit float64       `json:"training_nre_benefit"`
}

// TestSummary digests one test-phase assignment.
type TestSummary struct {
	Algorithm          string  `json:"algorithm"`
	AssignedConfig     string  `json:"assigned_config"`
	Similarity         float64 `json:"similarity"`
	Coverage           float64 `json:"coverage"`
	UtilizationGeneric float64 `json:"utilization_generic"`
	UtilizationLibrary float64 `json:"utilization_library"`
	CustomNRE          float64 `json:"custom_nre"`
}

func configSummary(d *core.DesignPoint) ConfigSummary {
	types := make(map[string]bool)
	for _, c := range d.Chiplets {
		types[c.Signature()] = true
	}
	cs := ConfigSummary{
		Name:         d.Name,
		Point:        d.Config.Point.String(),
		Chiplets:     len(d.Chiplets),
		PackageMM2:   d.Package.AreaMM2(),
		NRE:          d.NRE,
		ChipletTypes: len(types),
	}
	if r := d.DSE.Refined; r != nil {
		rs := &RefinedSummary{
			Candidates:      r.Refined,
			ThermalRejected: r.ThermalRejected,
			PeakTempC:       r.WinnerPeakTempC,
		}
		if len(r.WinnerLatencyS) == len(d.DSE.Evals) {
			rs.LatencyS = make(map[string]float64, len(d.DSE.Evals))
			for i, e := range d.DSE.Evals {
				rs.LatencyS[e.Model.Name] = r.WinnerLatencyS[i]
			}
		}
		cs.Refined = rs
	}
	return cs
}

// Summarize digests a full run.
func Summarize(tr *core.TrainResult, tt *core.TestResult) Summary {
	s := Summary{
		ElapsedSeconds: tr.Elapsed.Seconds(),
		DSEPoints:      tr.Options.Space.Len(),
		DSESpace:       tr.Generic.DSE.SpaceDesc,
		Generic:        configSummary(tr.Generic),
	}
	for _, sub := range tr.Subsets {
		_, _, ben := sub.NREBenefit(tr.Customs)
		s.Subsets = append(s.Subsets, SubsetSummary{
			Config:  configSummary(sub.Library),
			Members: sub.Members,
			Benefit: ben,
		})
	}
	if tt != nil {
		for _, a := range tt.Assignments {
			ts := TestSummary{Algorithm: a.Algorithm, AssignedConfig: "unassigned"}
			if a.SubsetIndex >= 0 {
				ts.AssignedConfig = tr.Subsets[a.SubsetIndex].Name
				ts.Similarity = a.Similarity
				ts.Coverage = a.OnLibrary.Coverage
				ts.UtilizationLibrary = a.OnLibrary.Utilization
			}
			if a.OnGeneric != nil {
				ts.UtilizationGeneric = a.OnGeneric.Utilization
			}
			if a.Custom != nil {
				ts.CustomNRE = a.Custom.NRE
			}
			s.TestAlgorithms = append(s.TestAlgorithms, ts)
		}
	}
	return s
}

// WriteJSON writes the run summary as indented JSON.
func WriteJSON(w io.Writer, tr *core.TrainResult, tt *core.TestResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(Summarize(tr, tt)); err != nil {
		return fmt.Errorf("report: encoding summary: %w", err)
	}
	return nil
}
