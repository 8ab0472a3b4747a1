package dse

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/ppa"
	"repro/internal/workload"
)

// canonEval renders an evaluation with bit-exact float encoding so two runs
// can be compared byte for byte.
func canonEval(e *ppa.Eval) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s cfg=%s lat=%x dyn=%x leak=%x area=%x\n", e.Model.Name, e.Config,
		math.Float64bits(e.LatencyS), math.Float64bits(e.DynamicPJ),
		math.Float64bits(e.LeakagePJ), math.Float64bits(e.AreaMM2))
	for _, le := range e.Layers {
		fmt.Fprintf(&sb, "  %d u%d x%d lat=%x pj=%x out=%d\n", le.Index, le.Unit,
			le.Executions, math.Float64bits(le.LatencyS),
			math.Float64bits(le.EnergyPJ), le.OutBytes)
	}
	return sb.String()
}

func canonResult(r Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "point=%+v config=%s feasible=%d explored=%d\n",
		r.Config.Point, r.Config, r.Feasible, r.Explored)
	for _, e := range r.Evals {
		sb.WriteString(canonEval(e))
	}
	if ref := r.Refined; ref != nil {
		fmt.Fprintf(&sb, "refined=%d rejected=%d peak=%x lat=", ref.Refined, ref.ThermalRejected,
			math.Float64bits(ref.WinnerPeakTempC))
		for _, l := range ref.WinnerLatencyS {
			fmt.Fprintf(&sb, " %x", math.Float64bits(l))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestExploreDeterministicAcrossWorkers guards the engine's tie-breaking
// contract: serial and 8-way parallel exploration must select byte-identical
// configurations and produce bit-identical evaluations.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	models := []*workload.Model{
		workload.NewAlexNet(), workload.NewViTBase(), workload.NewResNet18(),
	}
	space := hw.Space()
	cons := DefaultConstraints()

	serial, err := explorePoints(models, space, cons, eval.New(eval.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := explorePoints(models, space, cons, eval.New(eval.Options{Workers: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := canonResult(serial), canonResult(parallel); a != b {
		t.Errorf("Explore differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
}

// TestSweepDeterministicAcrossWorkers does the same for the full-space sweep.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	m := workload.NewAlexNet()
	space := hw.Space()
	cons := DefaultConstraints()
	serial, err := SweepSpace(m, hw.PointList(space), cons, eval.New(eval.Options{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepSpace(m, hw.PointList(space), cons, eval.New(eval.Options{Workers: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Point != b.Point || a.Feasible != b.Feasible || a.Pareto != b.Pareto ||
			a.Summary != b.Summary {
			t.Fatalf("sweep point %d differs: %+v vs %+v", i, a.Point, b.Point)
		}
	}
}

// TestExploreTieBreakIsLowestIndex pins the deterministic tie-break: among
// equal-area feasible candidates the lowest point index wins, independent of
// evaluation order. A duplicated space exercises exact area ties.
func TestExploreTieBreakIsLowestIndex(t *testing.T) {
	m := workload.NewAlexNet()
	space := hw.Space()
	doubled := append(append([]hw.Point{}, space...), space...)
	for _, workers := range []int{1, 8} {
		r, err := explorePoints([]*workload.Model{m}, doubled, DefaultConstraints(),
			eval.New(eval.Options{Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		base, err := explorePoints([]*workload.Model{m}, space, DefaultConstraints(),
			eval.New(eval.Options{Workers: workers}))
		if err != nil {
			t.Fatal(err)
		}
		if r.Config.Point != base.Config.Point {
			t.Errorf("workers=%d: duplicated space selected %+v, want first-index winner %+v",
				workers, r.Config.Point, base.Config.Point)
		}
	}
}
