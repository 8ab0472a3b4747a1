package report

// Markdown renders a complete run report — an auto-generated companion to
// EXPERIMENTS.md with the same structure: per-table sections, the Figure 2
// histogram, and the Figure 4 deviation summary. cmd/claire -md writes it.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Markdown renders the full run as a markdown document.
func Markdown(tr *core.TrainResult, tt *core.TestResult) string {
	var sb strings.Builder
	sb.WriteString("# CLAIRE run report\n\n")
	fmt.Fprintf(&sb, "Training converged in %v over %d DSE configurations (%s); %d subsets identified.\n\n",
		tr.Elapsed.Round(1000*1000), tr.Options.Space.Len(), tr.Generic.DSE.SpaceDesc, len(tr.Subsets))

	sb.WriteString("## Configurations\n\n")
	sb.WriteString("| Config | Members | Chiplets | Types | Package (mm2) | NRE |\n")
	sb.WriteString("|---|---|---|---|---|---|\n")
	writeCfg := func(name, members string, d *core.DesignPoint) {
		fmt.Fprintf(&sb, "| %s | %s | %d | %d | %.1f | %.3f |\n",
			name, members, len(d.Chiplets), distinctTypes(d), d.Package.AreaMM2(), d.NRE)
	}
	writeCfg("C_g (generic)", "all", tr.Generic)
	for _, s := range tr.Subsets {
		writeCfg(s.Name, strings.Join(s.Members, ", "), s.Library)
	}
	writeRefined(&sb, tr)
	sb.WriteString("\n## Training-phase NRE (Table IV)\n\n")
	sb.WriteString("| Config | NREcstm | NREk | Benefit |\n|---|---|---|---|\n")
	for _, s := range tr.Subsets {
		if len(s.Members) < 2 {
			continue
		}
		cum, lib, ben := s.NREBenefit(tr.Customs)
		fmt.Fprintf(&sb, "| %s | %.3f | %.3f | %.2fx |\n", s.Name, cum, lib, ben)
	}

	if tt != nil {
		sb.WriteString("\n## Test phase (Tables V & VI)\n\n")
		sb.WriteString("| Algorithm | Config | U(g) | U(k) | Gain | Custom NRE |\n")
		sb.WriteString("|---|---|---|---|---|---|\n")
		for _, a := range tt.Assignments {
			if a.SubsetIndex < 0 {
				fmt.Fprintf(&sb, "| %s | unassigned | - | - | - | %.3f |\n",
					a.Algorithm, a.Custom.NRE)
				continue
			}
			fmt.Fprintf(&sb, "| %s | %s | %.3f | %.3f | %.2fx | %.3f |\n",
				a.Algorithm, tr.Subsets[a.SubsetIndex].Name,
				a.OnGeneric.Utilization, a.OnLibrary.Utilization,
				a.OnLibrary.Utilization/a.OnGeneric.Utilization, a.Custom.NRE)
		}
		sb.WriteString("\n| Config | NREcstm(TT) | NREk | Benefit |\n|---|---|---|---|\n")
		for k := range tr.Subsets {
			cum, lib, ben := tt.SubsetNREBenefit(tr, k)
			if cum == 0 {
				continue
			}
			fmt.Fprintf(&sb, "| %s | %.3f | %.3f | %.2fx |\n", tr.Subsets[k].Name, cum, lib, ben)
		}
	}

	sb.WriteString("\n## Edge combinations (Figure 2, top 12)\n\n```\n")
	for _, d := range Figure2Data(tr.Models, 12) {
		fmt.Fprintf(&sb, "%-20s %d\n", d.Pair, d.Count)
	}
	sb.WriteString("```\n")

	rows := Figure4Data(tr, tt)
	a, l, e := metrics.MaxLibVsCustomDeviation(rows)
	fmt.Fprintf(&sb, "\n## PPA deviation (Figure 4)\n\nMax |C_k - C_i|: area %.2f%%, latency %.2f%%, energy %.2f%%.\n",
		a*100, l*100, e*100)
	return sb.String()
}

// writeRefined renders the staged-fidelity section: per-configuration stage-1
// work counters and the winner's refined per-model latencies — the scores
// selection actually compared, which the analytical tables above do not show.
// Silent for analytical runs (no design carries refinement stats).
func writeRefined(sb *strings.Builder, tr *core.TrainResult) {
	staged := make([]*core.DesignPoint, 0, 1+len(tr.Subsets))
	if tr.Generic.DSE.Refined != nil {
		staged = append(staged, tr.Generic)
	}
	for _, s := range tr.Subsets {
		if s.Library.DSE.Refined != nil {
			staged = append(staged, s.Library)
		}
	}
	if len(staged) == 0 {
		return
	}
	sb.WriteString("\n## Staged refinement (stage-1 physical scoring)\n\n")
	sb.WriteString("Selection compared stage-1 refined latencies (analytical + NoC/NoP transfer, thermal-checked), not the analytical numbers above.\n\n")
	sb.WriteString("| Config | Candidates refined | Thermal-rejected | Winner peak Tj (C) |\n|---|---|---|---|\n")
	for _, d := range staged {
		r := d.DSE.Refined
		fmt.Fprintf(sb, "| %s | %d | %d | %.1f |\n", d.Name, r.Refined, r.ThermalRejected, r.WinnerPeakTempC)
	}
	for _, d := range staged {
		r := d.DSE.Refined
		if len(r.WinnerLatencyS) != len(d.DSE.Evals) {
			continue
		}
		fmt.Fprintf(sb, "\n### %s winner latencies\n\n", d.Name)
		sb.WriteString("| Algorithm | Analytical (ms) | Refined (ms) | Overhead |\n|---|---|---|---|\n")
		for i, e := range d.DSE.Evals {
			ana, ref := e.LatencyS, r.WinnerLatencyS[i]
			over := 0.0
			if ana > 0 {
				over = ref/ana - 1
			}
			fmt.Fprintf(sb, "| %s | %.3f | %.3f | %+.1f%% |\n",
				e.Model.Name, ana*1e3, ref*1e3, over*100)
		}
	}
}

func distinctTypes(d *core.DesignPoint) int {
	sigs := make(map[string]bool)
	for _, c := range d.Chiplets {
		sigs[c.Signature()] = true
	}
	return len(sigs)
}
