package check

// Multi-fidelity selection cross-checks (check family 9): the staged
// evaluation pipeline (DESIGN.md §10) against independent oracles.
//
//   - Staged-vs-brute-force: on exhaustively enumerable sub-spaces, the
//     staged sweep's winner and stage-1 counters must match a re-derivation
//     through the brute-force selection oracle (internal/check/oracle) —
//     analytical frontier, full physical refinement of every frontier point,
//     junction-temperature rejection with backfill, and refined-slack
//     selection — that shares no code with the streaming frontier.
//   - Analytical byte-identity: requesting -fidelity=analytical explicitly
//     must reproduce the default sweep bit for bit at 1 and 8 workers.
//   - Thermal honesty: with the junction limit straddling the frontier's
//     measured peak temperatures, exactly the too-hot candidates must be
//     rejected and the selected winner must sit under the limit; a limit
//     below every peak must fail loudly rather than select anything.
//   - Per-chiplet NoC hops: fidelity.Params.Eval must charge each
//     intra-chiplet transfer the fractional average hop count of its
//     hosting chiplet's torus (the bug the staged pipeline exposed).
//   - NoC contention differential: the analytical transfer model against
//     the flit-level simulator under seeded concurrent traffic — the
//     analytical mean must floor the simulated mean within serialization
//     slack and stay within the router-delay ceiling.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/check/oracle"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/fidelity"
	"repro/internal/hw"
	"repro/internal/louvain"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/ppa"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// fidelityParams builds the staged pipeline's physical-model parameters with
// the pipeline defaults.
func fidelityParams() fidelity.Params {
	return fidelity.Params{
		NoC:               noc.DefaultNoC(),
		NoP:               noc.DefaultNoP(),
		MaxChipletAreaMM2: 50,
		Cluster: func(n int, edges []louvain.Edge) ([]int, error) {
			res, err := louvain.Cluster(n, edges)
			if err != nil {
				return nil, err
			}
			return res.Community, nil
		},
		Thermal:        thermal.Default(),
		JunctionLimitC: 105,
	}
}

// bfCandidate is one brute-force frontier survivor: its point index, refined
// per-model latencies, and measured peak junction temperature.
type bfCandidate struct {
	idx   int
	lats  []float64
	peakC float64
}

// bfStaged re-derives the staged selection with the brute-force oracle: the
// analytical observation matrix and its slack-feasible dominance frontier,
// physical refinement of every frontier point, then the oracle again over
// the refined latencies, where thermal rejection is static infeasibility — a
// rejected candidate neither sets the refined reference nor wins. Returns
// the winner index, the ordered frontier (refined, before rejection), and
// the rejected count.
func bfStaged(models []*workload.Model, space hw.DesignSpace, cons dse.Constraints,
	ev *eval.Evaluator, params fidelity.Params) (int, []bfCandidate, int, error) {
	nm := len(models)
	cat := hw.CatalogueOf(space)
	ana, err := observe(models, space, cons, ev)
	if err != nil {
		return -1, nil, 0, err
	}
	front := ana.Select(cons.LatencySlack).Frontier

	// Full physical refinement of every frontier point; row j of the refined
	// matrix keeps frontier point j's analytical areas, so the oracle ranks
	// the rows in the analytical selection order.
	cands := make([]bfCandidate, 0, len(front))
	refined := oracle.Matrix{Models: nm, Obs: make([]oracle.Obs, 0, len(front)*nm)}
	rejected := 0
	for _, idx := range front {
		cfg := hw.NewConfig(space.At(idx), models)
		cfg.Cat = cat
		full := make([]*ppa.Eval, nm)
		for i, m := range models {
			e, err := ev.Evaluate(m, cfg)
			if err != nil {
				return -1, nil, 0, err
			}
			full[i] = e
		}
		pkg, err := params.Build(fmt.Sprintf("bf:%d", idx), full)
		if err != nil {
			return -1, nil, 0, err
		}
		c := bfCandidate{idx: idx, lats: make([]float64, nm)}
		for i, e := range full {
			r := params.Eval(pkg, e)
			c.lats[i] = r.LatencyS
			if r.PeakTempC > c.peakC {
				c.peakC = r.PeakTempC
			}
		}
		hot := params.JunctionLimitC > 0 && c.peakC > params.JunctionLimitC
		if hot {
			rejected++
		}
		for i, ob := range ana.Row(idx) {
			refined.Obs = append(refined.Obs, oracle.Obs{AreaMM2: ob.AreaMM2, LatencyS: c.lats[i], Static: !hot})
		}
		cands = append(cands, c)
	}
	winner := -1
	if j := refined.Select(cons.LatencySlack).Winner(); j >= 0 {
		winner = cands[j].idx
	}
	return winner, cands, rejected, nil
}

// fidelitySpaces returns the exhaustively re-derivable sub-spaces the family
// validates staged selection on: two generated grids bound to the options'
// catalogue and a seeded sample of the paper grid (default catalogue — the
// point list carries none, so summaries and refinement stay consistent).
func fidelitySpaces(o *Options) ([]struct {
	name   string
	space  hw.DesignSpace
	params fidelity.Params
}, error) {
	var out []struct {
		name   string
		space  hw.DesignSpace
		params fidelity.Params
	}
	for _, spec := range []string{"2x2x2x2", "3x2x3x2"} {
		s, err := hw.ParseSpaceWith(spec, o.Catalogue)
		if err != nil {
			return nil, err
		}
		out = append(out, struct {
			name   string
			space  hw.DesignSpace
			params fidelity.Params
		}{spec, s, fidelityParams()})
	}
	all := hw.PaperSpace().Points()
	rng := rand.New(rand.NewSource(o.Seed))
	sample := make(hw.PointList, 0, 20)
	seen := map[int]bool{}
	for len(sample) < 20 {
		k := rng.Intn(len(all))
		if !seen[k] {
			seen[k] = true
			sample = append(sample, all[k])
		}
	}
	out = append(out, struct {
		name   string
		space  hw.DesignSpace
		params fidelity.Params
	}{"paper-sample", sample, fidelityParams()})
	return out, nil
}

// checkFidelity runs the multi-fidelity selection family.
func checkFidelity(o *Options) Section {
	col := newCollector("fidelity")
	models := []*workload.Model{workload.NewAlexNet(), workload.NewResNet18()}
	cons := dse.DefaultConstraints()

	spaces, err := fidelitySpaces(o)
	if !col.check(err == nil, "", "", "", "sub-space construction: %v", err) {
		return col.s
	}
	var straddle struct {
		params fidelity.Params
		space  hw.DesignSpace
		cands  []bfCandidate
	}
	for _, tc := range spaces {
		ev := eval.New(eval.Options{Workers: 2})
		wantIdx, cands, wantRejected, err := bfStaged(models, tc.space, cons, ev, tc.params)
		if !col.check(err == nil, "", "", tc.name, "brute-force staged oracle: %v", err) {
			continue
		}
		fo := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: tc.params}
		res, err := dse.ExploreSpaceCtx(context.Background(), models, tc.space, cons, ev,
			&dse.ExploreOptions{Fidelity: fo})
		if wantIdx < 0 {
			col.check(err != nil, "", "", tc.name,
				"oracle rejected every candidate but the staged sweep selected %v", res.Config.Point)
			continue
		}
		if !col.check(err == nil, "", "", tc.name, "staged sweep: %v", err) {
			continue
		}
		col.check(res.Config.Point == tc.space.At(wantIdx), "", "", tc.name,
			"staged winner %v != brute-force winner %v", res.Config.Point, tc.space.At(wantIdx))
		var ref dse.RefineStats
		if res.Refined != nil {
			ref = *res.Refined
		}
		col.check(ref.Refined == len(cands), "", "", tc.name,
			"Refined = %d, brute-force frontier has %d", ref.Refined, len(cands))
		col.check(ref.ThermalRejected == wantRejected, "", "", tc.name,
			"ThermalRejected = %d, brute-force rejected %d", ref.ThermalRejected, wantRejected)
		col.check(ref.Refined < tc.space.Len() || tc.space.Len() < 8, "", "", tc.name,
			"stage 1 refined the whole %d-point space; frontier pruning is broken", tc.space.Len())
		if len(straddle.cands) == 0 && len(cands) >= 2 {
			straddle.params, straddle.space, straddle.cands = tc.params, tc.space, cands
		}
	}

	checkAnalyticalIdentity(o, col, models, cons)
	checkThermalHonesty(col, models, cons, straddle.params, straddle.space, straddle.cands)
	checkPerChipletHops(col)
	checkNoCContentionDifferential(o, col)
	return col.s
}

// checkAnalyticalIdentity asserts that explicitly requesting the analytical
// mode is byte-identical to the default sweep at 1 and 8 workers.
func checkAnalyticalIdentity(o *Options, col *collector, models []*workload.Model, cons dse.Constraints) {
	grid := hw.PaperSpace()
	grid.Cat = o.Catalogue
	for _, workers := range []int{1, 8} {
		cfgName := fmt.Sprintf("workers=%d", workers)
		base, err := dse.ExploreSpaceCtx(context.Background(), models, grid, cons, eval.New(eval.Options{Workers: workers}), nil)
		if !col.check(err == nil, "", "", cfgName, "default sweep: %v", err) {
			continue
		}
		got, err := dse.ExploreSpaceCtx(context.Background(), models, grid, cons, eval.New(eval.Options{Workers: workers}),
			&dse.ExploreOptions{
				Fidelity: &dse.FidelityOptions{Mode: dse.FidelityAnalytical, Params: fidelityParams()},
			})
		if !col.check(err == nil, "", "", cfgName, "analytical-mode sweep: %v", err) {
			continue
		}
		col.check(base.Config.Point == got.Config.Point && base.Feasible == got.Feasible &&
			base.Explored == got.Explored, "", "", cfgName,
			"analytical mode differs from default: %v/%d/%d vs %v/%d/%d",
			got.Config.Point, got.Feasible, got.Explored, base.Config.Point, base.Feasible, base.Explored)
		col.check(got.Refined == nil, "", "", cfgName,
			"analytical mode reported stage-1 work: %+v", got.Refined)
		for i := range base.Evals {
			a, b := base.Evals[i], got.Evals[i]
			col.check(math.Float64bits(a.LatencyS) == math.Float64bits(b.LatencyS) &&
				math.Float64bits(a.DynamicPJ) == math.Float64bits(b.DynamicPJ), a.Model.Name, "", cfgName,
				"winner eval bits differ: lat %x vs %x", math.Float64bits(a.LatencyS), math.Float64bits(b.LatencyS))
		}
	}
}

// checkThermalHonesty straddles the junction limit across the measured peak
// temperatures of a brute-force frontier: exactly the too-hot candidates must
// be rejected, the winner must sit under the limit, and a limit below every
// peak must error rather than select.
func checkThermalHonesty(col *collector, models []*workload.Model, cons dse.Constraints,
	params fidelity.Params, space hw.DesignSpace, cands []bfCandidate) {
	if !col.check(len(cands) >= 2, "", "", "", "no sub-space produced a >=2-candidate frontier to straddle") {
		return
	}
	pMax, pSecond := math.Inf(-1), math.Inf(-1)
	for _, c := range cands {
		if c.peakC > pMax {
			pMax, pSecond = c.peakC, pMax
		} else if c.peakC > pSecond && c.peakC < pMax {
			pSecond = c.peakC
		}
	}
	ev := eval.New(eval.Options{Workers: 2})
	idxs := make([]int, len(cands))
	for i, c := range cands {
		idxs[i] = c.idx
	}
	if !math.IsInf(pSecond, -1) {
		limit := (pMax + pSecond) / 2
		hot := 0
		for _, c := range cands {
			if c.peakC > limit {
				hot++
			}
		}
		params.JunctionLimitC = limit
		fo := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: params}
		best, stats, err := fo.RefineSelect(context.Background(), idxs, models, space, cons, ev)
		if col.check(err == nil, "", "", "straddle", "RefineSelect: %v", err) {
			col.check(stats.ThermalRejected == hot, "", "", "straddle",
				"rejected %d, want the %d candidates above %.2f C", stats.ThermalRejected, hot, limit)
			for _, c := range cands {
				if c.idx == best {
					col.check(c.peakC <= limit, "", "", "straddle",
						"winner peak %.2f C exceeds the limit %.2f C", c.peakC, limit)
				}
			}
		}
	}
	params.JunctionLimitC = 1
	fo := &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: params}
	_, _, err := fo.RefineSelect(context.Background(), idxs, models, space, cons, ev)
	col.check(err != nil, "", "", "all-hot", "a limit below every peak must reject the whole frontier")
}

// checkPerChipletHops cross-validates fidelity.Params.Eval's NoC charging on
// an asymmetric two-chiplet package: each intra-chiplet transfer must cost
// the fractional average hop count of its hosting chiplet's torus, and the
// inter-chiplet transfer the floorplan's NoP hop count.
func checkPerChipletHops(col *collector) {
	p := fidelityParams()
	chiplets := []fidelity.Chiplet{
		{Label: "L1", Banks: []hw.Bank{
			{Unit: hw.SystolicArray, Count: 2, SASize: 32},
			{Unit: hw.ActReLU, Count: 1},
		}, AreaMM2: 10},
		{Label: "L2", Banks: []hw.Bank{
			{Unit: hw.PoolMax, Count: 1},
			{Unit: hw.EngFlatten, Count: 1},
			{Unit: hw.ActGELU, Count: 1},
		}, AreaMM2: 20},
	}
	fp := placement.Placement{Grid: placement.Grid{W: 2, H: 1}, Slot: []int{0, 1}}
	pkg := fidelity.NewPackage(chiplets, fp)
	e := &ppa.Eval{
		Summary: ppa.Summary{LatencyS: 1e-3},
		Layers: []ppa.LayerEval{
			{Unit: hw.SystolicArray, OutBytes: 1 << 20},
			{Unit: hw.ActReLU, OutBytes: 1 << 18},
			{Unit: hw.PoolMax, OutBytes: 1 << 16},
			{Unit: hw.ActGELU},
		},
	}
	r := p.Eval(pkg, e)
	hops0 := noc.NewTorus(2).AvgHops()
	hops1 := noc.NewTorus(3).AvgHops()
	col.check(hops1 != math.Trunc(hops1), "", "", "",
		"3-bank torus average hops %v is integral; fixture cannot detect rounding", hops1)
	wantNoC := p.NoC.TransferLatencyAvgS(1<<20, hops0) + p.NoC.TransferLatencyAvgS(1<<16, hops1)
	col.check(math.Abs(r.NoCLatencyS-wantNoC) < 1e-18, "", "", "",
		"NoC latency %v != per-hosting-chiplet model %v", r.NoCLatencyS, wantNoC)
	wantNoP := p.NoP.TransferLatencyS(1<<18, fp.Hops(0, 1))
	col.check(math.Abs(r.NoPLatencyS-wantNoP) < 1e-18, "", "", "",
		"NoP latency %v != floorplan-hop model %v", r.NoPLatencyS, wantNoP)
	col.check(r.LatencyS == e.LatencyS+r.NoCLatencyS+r.NoPLatencyS, "", "", "",
		"refined latency %v != compute+NoC+NoP", r.LatencyS)
}

// checkNoCContentionDifferential validates the analytical transfer model
// against the flit-level simulator under seeded concurrent multi-flit
// traffic: the analytical mean is a floor up to serialization slack (0.8x)
// and must stay within the router-delay ceiling — the agreement that lets
// the staged pipeline use the closed form instead of simulating.
func checkNoCContentionDifferential(o *Options, col *collector) {
	p := noc.DefaultNoC()
	rng := rand.New(rand.NewSource(o.Seed))
	flitBytes := int64(p.BytesPerCycle())
	clockHz := p.ClockGHz * 1e9
	for _, tor := range []noc.Torus{{W: 4, H: 4}, {W: 4, H: 2}} {
		cfgName := fmt.Sprintf("%dx%d", tor.W, tor.H)
		s := noc.NewSim(tor, p)
		n := tor.Nodes()
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				dst = (dst + 1) % n
			}
			_, err = s.Inject(src, dst, int64(rng.Intn(9)+4)*flitBytes, int64(i))
		}
		var msgs []noc.Message
		if err == nil {
			msgs, err = s.Run(1_000_000)
		}
		if !col.check(err == nil, "", "", cfgName, "sim: %v", err) {
			continue
		}
		var simMean, anaMean float64
		degenerate := false
		for _, m := range msgs {
			simCycles := float64(m.LatencyCycles)
			anaCycles := p.TransferLatencyS(m.Flits*flitBytes, m.MinHops) * clockHz
			if simCycles <= 0 || anaCycles <= 0 {
				degenerate = true
			}
			simMean += simCycles
			anaMean += anaCycles
		}
		if !col.check(!degenerate, "", "", cfgName, "degenerate transfer (non-positive latency)") {
			continue
		}
		simMean /= float64(len(msgs))
		anaMean /= float64(len(msgs))
		col.check(simMean >= 0.8*anaMean, "", "", cfgName,
			"simulated mean %.1f cycles below analytical floor %.1f: model overestimates", simMean, anaMean)
		col.check(simMean <= 2*float64(p.RouterDelayCycles)*anaMean, "", "", cfgName,
			"simulated mean %.1f cycles above ceiling %.1f: model too optimistic under contention",
			simMean, 2*float64(p.RouterDelayCycles)*anaMean)
	}
}
